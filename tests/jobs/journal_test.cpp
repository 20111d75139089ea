// Journal robustness: the supervisor's durable memory must recover a
// torn tail, refuse interior damage loudly (naming the cell), and treat
// duplicate completions honestly.
#include "jobs/journal.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/test_dir.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
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
  void dump(const std::string& content) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// A journal of `n` well-formed lines: start+done per job.
  void write_lines(std::uint64_t n) {
    Journal j;
    std::string err;
    ASSERT_TRUE(j.open(path_, err)) << err;
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(j.append("start",
                           {{"job", "\"sort-p4-n64-h2-s" +
                                        std::to_string(i) + "-abcd0123\""},
                            {"attempt", "1"}},
                           err))
          << err;
    }
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(JournalTest, AppendedLinesRoundTrip) {
  Journal j;
  std::string err;
  ASSERT_TRUE(j.open(path_, err)) << err;
  ASSERT_TRUE(j.append("sweep", {{"name", "\"s\""}, {"cells", "4"}}, err));
  ASSERT_TRUE(
      j.append("done", {{"job", "\"k1\""}, {"result_crc", "\"12ab34cd\""}},
               err));

  std::vector<JournalEntry> entries;
  std::string warning;
  ASSERT_TRUE(Journal::load(path_, entries, warning, err)) << err;
  EXPECT_EQ(warning, "");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[0].event, "sweep");
  EXPECT_EQ(entries[0].field("name"), "s");
  EXPECT_EQ(entries[0].field("cells"), "4");
  EXPECT_EQ(entries[1].seq, 1u);
  EXPECT_EQ(entries[1].field("result_crc"), "12ab34cd");
  EXPECT_EQ(entries[1].field("missing"), "");
}

TEST_F(JournalTest, MissingFileLoadsEmpty) {
  std::vector<JournalEntry> entries;
  std::string warning, err;
  ASSERT_TRUE(Journal::load(path_, entries, warning, err)) << err;
  EXPECT_TRUE(entries.empty());
}

TEST_F(JournalTest, TruncatedLastLineIsDroppedWithAWarning) {
  write_lines(3);
  const std::string full = slurp();
  // Cut the final line mid-bytes — the classic kill-mid-append.
  dump(full.substr(0, full.size() - 17));

  std::vector<JournalEntry> entries;
  std::string warning, err;
  ASSERT_TRUE(Journal::load(path_, entries, warning, err)) << err;
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_NE(warning.find("torn final line"), std::string::npos) << warning;
}

TEST_F(JournalTest, OpenTruncatesTheTornTailSoAppendsStayFramed) {
  write_lines(2);
  const std::string full = slurp();
  dump(full.substr(0, full.size() - 9));  // tear the 2nd line

  Journal j;
  std::string err;
  ASSERT_TRUE(j.open(path_, err)) << err;
  EXPECT_EQ(j.next_seq(), 1u) << "torn line must not count";
  ASSERT_TRUE(j.append("fail", {{"job", "\"k\""}}, err)) << err;

  std::vector<JournalEntry> entries;
  std::string warning;
  ASSERT_TRUE(Journal::load(path_, entries, warning, err)) << err;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].event, "fail");
  EXPECT_EQ(entries[1].seq, 1u);
}

TEST_F(JournalTest, TamperedInteriorCrcFailsLoudlyNamingTheCell) {
  write_lines(3);
  std::string content = slurp();
  // Flip a digit inside the FIRST line's attempt field (interior line).
  const std::size_t at = content.find("\"attempt\":1");
  ASSERT_NE(at, std::string::npos);
  content[at + 10] = '7';
  dump(content);

  std::vector<JournalEntry> entries;
  std::string warning, err;
  EXPECT_FALSE(Journal::load(path_, entries, warning, err));
  EXPECT_NE(err.find("crc mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find("sort-p4-n64-h2-s0-abcd0123"), std::string::npos)
      << "error must name the damaged cell: " << err;
}

TEST_F(JournalTest, NonMonotoneSequenceNumbersAreAnError) {
  Journal j;
  std::string err;
  ASSERT_TRUE(j.open(path_, err)) << err;
  ASSERT_TRUE(j.append("start", {{"job", "\"k\""}}, err));
  // Re-frame a line with a skipped sequence number (valid CRC).
  std::ofstream(path_, std::ios::binary | std::ios::app)
      << format_line(5, "start", {{"job", "\"k2\""}});
  // And one more good line after it so the bad one is interior.
  std::ofstream(path_, std::ios::binary | std::ios::app)
      << format_line(6, "start", {{"job", "\"k3\""}});

  std::vector<JournalEntry> entries;
  std::string warning;
  EXPECT_FALSE(Journal::load(path_, entries, warning, err));
  EXPECT_NE(err.find("seq"), std::string::npos) << err;
}

TEST_F(JournalTest, ValidCrcOverGarbageBodyIsAHardError) {
  // A CRC that matches an unparseable body means the writer was broken:
  // never silently skipped, even on the final line.
  dump(format_line(0, "sweep", {{"bad", "{{{"}}));
  std::vector<JournalEntry> entries;
  std::string warning, err;
  EXPECT_FALSE(Journal::load(path_, entries, warning, err));
  EXPECT_NE(err.find("unparseable"), std::string::npos) << err;
}

TEST_F(JournalTest, FormatLineCrcCoversTheWholeBody) {
  const std::string line = format_line(3, "done", {{"job", "\"k\""}});
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"seq\":3"), std::string::npos);
  EXPECT_NE(line.find(",\"crc\":\""), std::string::npos);
  // Any byte flip must invalidate the frame.
  const std::string l0 = format_line(0, "start", {{"job", "\"a\""}});
  std::string l1 = format_line(1, "start", {{"job", "\"b\""}});
  const std::string l2 = format_line(2, "start", {{"job", "\"c\""}});
  l1[10] = l1[10] == 'x' ? 'y' : 'x';
  dump(l0 + l1 + l2);  // the bent line is interior
  std::vector<JournalEntry> entries;
  std::string warning, err;
  EXPECT_FALSE(Journal::load(path_, entries, warning, err));
  EXPECT_NE(err.find("crc"), std::string::npos) << err;
}

}  // namespace
}  // namespace emx::jobs
