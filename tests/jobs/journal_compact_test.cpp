// Journal compaction: the rewrite keeps exactly the entries it is
// given (values re-emitted byte-for-byte, types intact), re-sequences
// from zero, and is atomic — a crash mid-compaction leaves the old
// journal or the new one, never a blend.
#include "jobs/journal.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/test_dir.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

class JournalCompactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "journal.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// A realistic history: header, two jobs' starts/retries, terminals.
  void write_history() {
    Journal j;
    std::string err;
    ASSERT_TRUE(j.open(path_, err)) << err;
    ASSERT_TRUE(j.append("sweep", {{"name", "\"demo\""}, {"version", "1"}},
                         err))
        << err;
    ASSERT_TRUE(j.append("start", {{"job", "\"a-1111\""}, {"attempt", "1"}},
                         err))
        << err;
    ASSERT_TRUE(j.append("fail", {{"job", "\"a-1111\""},
                                  {"reason", "\"signal:9\""}},
                         err))
        << err;
    ASSERT_TRUE(j.append("start", {{"job", "\"a-1111\""}, {"attempt", "2"}},
                         err))
        << err;
    ASSERT_TRUE(j.append("done", {{"job", "\"a-1111\""},
                                  {"result_crc", "\"0badf00d\""}},
                         err))
        << err;
    ASSERT_TRUE(j.append("start", {{"job", "\"b-2222\""}, {"attempt", "1"}},
                         err))
        << err;
    ASSERT_TRUE(j.append("give-up", {{"job", "\"b-2222\""},
                                     {"reason", "\"exit:1\""}},
                         err))
        << err;
  }

  /// Keeps header + terminal facts only (what the supervisors keep).
  static std::vector<JournalEntry> survivors(
      const std::vector<JournalEntry>& all) {
    std::vector<JournalEntry> keep;
    for (const JournalEntry& e : all)
      if (e.event != "start" && e.event != "fail") keep.push_back(e);
    return keep;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(JournalCompactTest, KeepsSurvivorsVerbatimAndResequences) {
  write_history();
  std::vector<JournalEntry> all;
  std::string warning, err;
  ASSERT_TRUE(Journal::load(path_, all, warning, err)) << err;
  ASSERT_EQ(all.size(), 7u);

  ASSERT_TRUE(Journal::compact(path_, survivors(all), err)) << err;

  std::vector<JournalEntry> after;
  ASSERT_TRUE(Journal::load(path_, after, warning, err)) << err;
  EXPECT_TRUE(warning.empty()) << warning;
  ASSERT_EQ(after.size(), 3u);
  // Re-sequenced from zero, original order preserved.
  EXPECT_EQ(after[0].seq, 0u);
  EXPECT_EQ(after[0].event, "sweep");
  EXPECT_EQ(after[1].seq, 1u);
  EXPECT_EQ(after[1].event, "done");
  EXPECT_EQ(after[2].seq, 2u);
  EXPECT_EQ(after[2].event, "give-up");
  // Values survive with their types: strings re-quoted, numbers bare.
  EXPECT_EQ(after[0].field("version"), "1");
  EXPECT_EQ(after[1].field("job"), "a-1111");
  EXPECT_EQ(after[1].field("result_crc"), "0badf00d");
  const std::string text = slurp();
  EXPECT_NE(text.find("\"job\":\"a-1111\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"version\":1,"), std::string::npos) << text;
}

TEST_F(JournalCompactTest, CompactedJournalAcceptsFurtherAppends) {
  write_history();
  std::vector<JournalEntry> all;
  std::string warning, err;
  ASSERT_TRUE(Journal::load(path_, all, warning, err)) << err;
  ASSERT_TRUE(Journal::compact(path_, survivors(all), err)) << err;

  // Re-opening resumes the sequence where compaction left it.
  Journal j;
  ASSERT_TRUE(j.open(path_, err)) << err;
  EXPECT_EQ(j.next_seq(), 3u);
  ASSERT_TRUE(j.append("start", {{"job", "\"c-3333\""}, {"attempt", "1"}},
                       err))
      << err;
  std::vector<JournalEntry> after;
  ASSERT_TRUE(Journal::load(path_, after, warning, err)) << err;
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after.back().event, "start");
}

TEST_F(JournalCompactTest, KilledCompactionLeavesTheOldJournalIntact) {
  write_history();
  const std::string before = slurp();
  std::vector<JournalEntry> all;
  std::string warning, err;
  ASSERT_TRUE(Journal::load(path_, all, warning, err)) << err;

  // A compaction killed before the rename leaves only a stale temp file
  // beside the journal. Model exactly that: write the temp, never
  // rename. Load must see the untouched original and ignore the temp.
  const std::string stale =
      (dir_ / "journal.jsonl.emxtmp.1234").string();
  std::string content;
  std::uint64_t seq = 0;
  for (const JournalEntry& e : survivors(all))
    content += format_line(seq++, e.event, e.raw_fields);
  ASSERT_EQ(fsio::atomic_write_file(stale, content), "");

  EXPECT_EQ(slurp(), before);
  std::vector<JournalEntry> again;
  ASSERT_TRUE(Journal::load(path_, again, warning, err)) << err;
  EXPECT_EQ(again.size(), all.size());
}

TEST_F(JournalCompactTest, TornTailSurvivorsStillCompact) {
  write_history();
  // Tear the final line, as a crash mid-append would: load drops it
  // with a warning, and compaction of the survivors round-trips.
  std::string text = slurp();
  text.resize(text.size() - 9);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }
  std::vector<JournalEntry> all;
  std::string warning, err;
  ASSERT_TRUE(Journal::load(path_, all, warning, err)) << err;
  EXPECT_FALSE(warning.empty());
  ASSERT_EQ(all.size(), 6u);  // the give-up was torn off

  ASSERT_TRUE(Journal::compact(path_, survivors(all), err)) << err;
  std::vector<JournalEntry> after;
  ASSERT_TRUE(Journal::load(path_, after, warning, err)) << err;
  EXPECT_TRUE(warning.empty()) << warning;
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].event, "done");
}

}  // namespace
}  // namespace emx::jobs
