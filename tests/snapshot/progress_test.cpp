// Progress heartbeat records (--progress-every): CRC framing survives
// torn tails, the reader never consumes half a line, and arming the
// observer changes nothing about the simulation it observes.
#include "snapshot/progress.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serializer.hpp"
#include "common/test_dir.hpp"
#include "snapshot/runner.hpp"

namespace emx::snapshot {
namespace {

namespace fs = std::filesystem;

TEST(ProgressFormatTest, RoundTripsThroughParse) {
  std::string buf;
  buf += format_progress_line({1000, 64, 0, false});
  buf += format_progress_line({2000, 31, 1, false});
  buf += format_progress_line({2345, 0, 2, true});

  std::vector<ProgressRecord> recs;
  std::string err;
  EXPECT_EQ(parse_progress(buf, recs, err), buf.size());
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].cycle, 1000u);
  EXPECT_EQ(recs[0].live_threads, 64u);
  EXPECT_EQ(recs[1].checkpoints, 1u);
  EXPECT_FALSE(recs[1].done);
  EXPECT_EQ(recs[2].cycle, 2345u);
  EXPECT_TRUE(recs[2].done);
}

TEST(ProgressFormatTest, TornTailIsLeftForTheNextPoll) {
  const std::string whole = format_progress_line({1000, 8, 0, false});
  const std::string torn = format_progress_line({2000, 4, 1, false});
  // Every strict prefix of the torn line must be ignored, not consumed:
  // the writer may be mid-append (or SIGKILLed) at any byte.
  for (std::size_t cut = 0; cut < torn.size(); ++cut) {
    const std::string buf = whole + torn.substr(0, cut);
    std::vector<ProgressRecord> recs;
    std::string err;
    EXPECT_EQ(parse_progress(buf, recs, err), whole.size()) << "cut=" << cut;
    EXPECT_TRUE(err.empty()) << err;
    ASSERT_EQ(recs.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(recs[0].cycle, 1000u);
  }
}

TEST(ProgressFormatTest, DamagedLineIsNeverConsumed) {
  std::string line = format_progress_line({1000, 8, 0, false});
  // Flip a digit inside the body: the CRC no longer vouches for the
  // bytes, so the line is indistinguishable from a torn append and
  // must be left unconsumed — never parsed, never skipped over.
  line[line.find("1000")] = '9';
  std::vector<ProgressRecord> recs;
  std::string err;
  EXPECT_EQ(parse_progress(line, recs, err), 0u);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(recs.empty());
}

TEST(ProgressFormatTest, ValidCrcWithMalformedBodyIsAWriterError) {
  // A body the CRC *does* vouch for but that parses as nonsense means
  // a broken writer, not a torn write — surfaced, not spun on.
  const std::string body = "{\"bogus\":1";
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x",
                emx::ser::crc32(body.data(), body.size()));
  const std::string line = body + ",\"crc\":\"" + crc + "\"}\n";
  std::vector<ProgressRecord> recs;
  std::string err;
  EXPECT_EQ(parse_progress(line, recs, err), 0u);
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(recs.empty());
}

TEST(ProgressObserverTest, ArmingProgressChangesNoCycles) {
  const fs::path dir = emx::test::test_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);

  RunOptions base;
  base.manifest.app = "sort";
  base.manifest.config.proc_count = 4;
  base.manifest.size_per_proc = 64;
  base.manifest.threads = 2;
  base.manifest.iterations = 4;
  base.manifest.seed = 1;

  const RunResult plain = run(base);
  ASSERT_EQ(plain.exit_code, 0) << plain.error;

  RunOptions armed = base;
  armed.progress_every = 500;
  armed.progress_path = (dir / "progress.jsonl").string();
  const RunResult observed = run(armed);
  ASSERT_EQ(observed.exit_code, 0) << observed.error;

  // Pure observer: identical cycles and an identical trace stream.
  EXPECT_EQ(observed.end_cycle, plain.end_cycle);
  EXPECT_EQ(observed.trace_events, plain.trace_events);
  EXPECT_EQ(observed.trace_crc, plain.trace_crc);

  // And the file it left behind is a well-formed record stream ending
  // in a done-record at the end cycle.
  std::ifstream in(armed.progress_path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::vector<ProgressRecord> recs;
  std::string err;
  const std::string buf = ss.str();
  EXPECT_EQ(parse_progress(buf, recs, err), buf.size());
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_FALSE(recs.empty());
  EXPECT_TRUE(recs.back().done);
  EXPECT_EQ(recs.back().cycle, plain.end_cycle);
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_LT(recs[i - 1].cycle, recs[i].cycle);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace emx::snapshot
