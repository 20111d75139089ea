// fsio — the crash-safe filesystem primitives under snapshots, results
// and the sweep journal.
#include "common/fsio.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/test_dir.hpp"

namespace emx::fsio {
namespace {

namespace fs = std::filesystem;

class FsioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(FsioTest, AtomicWriteCreatesReplacesAndLeavesNoTempFiles) {
  const std::string target = path("data.bin");
  ASSERT_EQ(atomic_write_file(target, "first"), "");
  EXPECT_EQ(slurp(target), "first");
  ASSERT_EQ(atomic_write_file(target, "second, longer than before"), "");
  EXPECT_EQ(slurp(target), "second, longer than before");

  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "temp files must not survive a publish";
}

TEST_F(FsioTest, AtomicWriteRefusesUnreachableParent) {
  ASSERT_EQ(atomic_write_file(path("blocker"), "x"), "");
  const std::string err =
      atomic_write_file(path("blocker") + "/sub/file", "y");
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("blocker"), std::string::npos);
}

TEST_F(FsioTest, EnsureWritableDirCreatesParents) {
  const std::string deep = path("a/b/c");
  EXPECT_EQ(ensure_writable_dir(deep), "");
  EXPECT_TRUE(fs::is_directory(deep));
  // No probe file left behind.
  EXPECT_TRUE(fs::is_empty(deep));
}

TEST_F(FsioTest, EnsureWritableDirNamesARegularFileInTheWay) {
  ASSERT_EQ(atomic_write_file(path("taken"), "x"), "");
  const std::string err = ensure_writable_dir(path("taken"));
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("taken"), std::string::npos);
}

TEST_F(FsioTest, ProbeWritableFileLeavesExistingContentAlone) {
  const std::string existing = path("log.txt");
  ASSERT_EQ(atomic_write_file(existing, "precious"), "");
  EXPECT_EQ(probe_writable_file(existing), "");
  EXPECT_EQ(slurp(existing), "precious");
}

TEST_F(FsioTest, ProbeWritableFileRemovesItsOwnProbe) {
  const std::string fresh = path("new.txt");
  EXPECT_EQ(probe_writable_file(fresh), "");
  EXPECT_FALSE(fs::exists(fresh)) << "probe must not leave a file behind";
}

TEST_F(FsioTest, ProbeWritableFileRefusesPathUnderARegularFile) {
  // Works even as root (ENOTDIR, not a permission check).
  ASSERT_EQ(atomic_write_file(path("plain"), "x"), "");
  const std::string err = probe_writable_file(path("plain") + "/nested");
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("nested"), std::string::npos);
}

TEST_F(FsioTest, AppendLineFsyncAppends) {
  const std::string log = path("journal");
  ASSERT_EQ(append_line_fsync(log, "one\n"), "");
  ASSERT_EQ(append_line_fsync(log, "two\n"), "");
  EXPECT_EQ(slurp(log), "one\ntwo\n");
}

}  // namespace
}  // namespace emx::fsio
