// Crash-safety of SnapshotFile::write_file — the property the sweep
// supervisor's whole recovery story stands on: a checkpoint published
// under its final name is always complete, no matter when its writer
// was SIGKILLed and how many writers raced on the target.
//
// Both tests drive real child processes. Before write_file moved to
// fsio::atomic_write_file, a fixed ".tmp" suffix let two writers open
// the same temp file: writer B truncated writer A's bytes, A's live
// descriptor kept writing into the file B renamed into place, and the
// published snapshot failed CRC. The concurrent-writer test reproduces
// exactly that schedule and fails against the old code.
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/serializer.hpp"
#include "common/test_dir.hpp"
#include "snapshot/format.hpp"

namespace emx::snapshot {
namespace {

namespace fs = std::filesystem;

/// A checkpoint-sized snapshot whose every payload byte encodes `tag`,
/// so a decoded file proves which writer's version was published.
SnapshotFile make_snapshot(std::uint8_t tag) {
  SnapshotFile file;
  file.kind = FileKind::kCheckpoint;
  Serializer s;
  // Large enough (~1 MiB) that a SIGKILL lands mid-write with high
  // probability across the kill-loop iterations.
  for (int i = 0; i < 256 * 1024; ++i) s.u32(0x01010101u * tag);
  file.add("payload", s);
  return file;
}

/// Which writer's snapshot is at `path`? Fails the test on a torn file.
std::uint8_t decode_tag(const std::string& path) {
  SnapshotFile file;
  const std::string err = file.read_file(path);
  EXPECT_EQ(err, "") << "published snapshot is torn";
  if (!err.empty()) return 0xFF;
  EXPECT_EQ(file.sections.size(), 1u);
  if (file.sections.empty() || file.sections[0].payload.empty()) return 0xFF;
  return file.sections[0].payload[0];
}

class AtomicWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    target_ = (dir_ / "snap.emxsnap").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string target_;
};

TEST_F(AtomicWriteTest, KillMidWriteLeavesADecodableSnapshot) {
  // Seed a known-good version so the target always exists.
  ASSERT_EQ(make_snapshot(1).write_file(target_), "");

  for (int round = 0; round < 12; ++round) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: overwrite the target as fast as possible, forever.
      const SnapshotFile snap = make_snapshot(2);
      for (;;) (void)snap.write_file(target_);
    }
    // Let the child get into (usually the middle of) a write, then kill.
    ::usleep(static_cast<useconds_t>(1000 + 997 * round));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    // Whatever instant the kill landed, the published name must hold a
    // complete snapshot — the seed or the child's version, never a mix.
    const std::uint8_t tag = decode_tag(target_);
    EXPECT_TRUE(tag == 1 || tag == 2) << "tag " << int(tag);
  }
}

TEST_F(AtomicWriteTest, ConcurrentWritersNeverInterleave) {
  // Three writers — the orphaned-worker-beside-its-replacement schedule
  // the supervisor can produce after it is SIGKILLed and re-invoked.
  constexpr int kWriters = 3;
  constexpr int kWritesEach = 30;
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const SnapshotFile snap =
          make_snapshot(static_cast<std::uint8_t>(10 + w));
      for (int i = 0; i < kWritesEach; ++i) {
        if (!snap.write_file(target_).empty()) ::_exit(1);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  const std::uint8_t tag = decode_tag(target_);
  EXPECT_TRUE(tag >= 10 && tag < 10 + kWriters) << "tag " << int(tag);
}

}  // namespace
}  // namespace emx::snapshot
