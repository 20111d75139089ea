// The preemption races the emx_serve daemon leans on, proven at the
// ProcessPool + emx_run level: a kill_child() exit is distinguishable
// from a crash and classified as resumable; a SIGKILL at any moment —
// including racing a periodic checkpoint write — leaves only intact
// snapshot files, so the newest checkpoint always carries the resume.
#include <filesystem>
#include <string>
#include <vector>

#include <signal.h>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/test_dir.hpp"
#include "jobs/clock.hpp"
#include "jobs/core.hpp"
#include "jobs/process_pool.hpp"
#include "snapshot/format.hpp"
#include "snapshot/runner.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

class PreemptRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "ck");
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// argv for a long-enough sort run plus `extra` flags.
  Command worker(const std::vector<std::string>& extra) {
    Command cmd;
    cmd.argv = {EMX_RUN_BIN,
                "--app=sort",
                "--procs=16",
                "--size-per-proc=16384",
                "--threads=4",
                "--result-json=" + (dir_ / "result.json").string()};
    cmd.argv.insert(cmd.argv.end(), extra.begin(), extra.end());
    cmd.stdout_path = (dir_ / "out.txt").string();
    cmd.stderr_path = (dir_ / "err.txt").string();
    return cmd;
  }

  /// A fresh run writing a periodic checkpoint every 20000 cycles.
  Command checkpointing_worker() {
    return worker({"--checkpoint-every=20000",
                   "--checkpoint-dir=" + (dir_ / "ck").string()});
  }

  /// Polls until the first periodic checkpoint lands; the worker must
  /// still be running then.
  std::string await_first_checkpoint(ProcessPool& pool, Clock& clock) {
    std::string first;
    for (int i = 0; i < 2000 && first.empty(); ++i) {
      clock.sleep_ms(2);
      first = latest_checkpoint((dir_ / "ck").string(), "sort");
      std::vector<ExitStatus> exits;
      EXPECT_EQ(pool.poll(exits), 0u) << "worker finished before a "
                                         "checkpoint; grow the workload";
      if (!exits.empty()) return "";
    }
    return first;
  }

  /// Polls until the tagged child exits; returns its status.
  ExitStatus reap(ProcessPool& pool, Clock& clock) {
    std::vector<ExitStatus> exits;
    while (exits.empty()) {
      pool.poll(exits);
      if (exits.empty()) clock.sleep_ms(2);
    }
    return exits.front();
  }

  std::string slurp(const std::string& name) {
    std::string bytes;
    fsio::read_file((dir_ / name).string(), bytes);
    return bytes;
  }

  fs::path dir_;
};

TEST_F(PreemptRaceTest, KillChildIsPreemptedAndResumable) {
  Clock& clock = real_clock();
  ProcessPool pool(clock);
  std::string err;
  ASSERT_GT(pool.start(checkpointing_worker(), 7, 0, err), 0) << err;

  // Preempt the way the daemon does: SIGKILL as soon as the worker has
  // a periodic checkpoint to resume from.
  const std::string ck = await_first_checkpoint(pool, clock);
  ASSERT_FALSE(ck.empty());
  ASSERT_TRUE(pool.kill_child(7));
  const ExitStatus es = reap(pool, clock);
  EXPECT_EQ(es.tag, 7u);
  EXPECT_TRUE(es.preempted) << "kill_child exits must be marked";
  EXPECT_TRUE(es.signaled);
  EXPECT_EQ(es.sig, SIGKILL);
  EXPECT_FALSE(es.timed_out);
  EXPECT_EQ(classify_exit(es), ExitClass::kRetryResume)
      << "a preemption kill must be retryable, not permanent";

  // The victim resumes from that checkpoint to a byte-identical result.
  ASSERT_GT(pool.start(worker({"--resume=" + ck}), 8, 0, err), 0) << err;
  const ExitStatus done = reap(pool, clock);
  EXPECT_FALSE(done.signaled) << slurp("err.txt");
  EXPECT_EQ(done.code, 0) << slurp("err.txt");

  snapshot::RunOptions clean;
  clean.manifest.app = "sort";
  clean.manifest.config.proc_count = 16;
  clean.manifest.size_per_proc = 16384;
  clean.manifest.threads = 4;
  clean.manifest.iterations = 8;
  clean.manifest.seed = 1;
  clean.result_json_path = (dir_ / "clean.json").string();
  ASSERT_EQ(snapshot::run(clean).exit_code, 0);
  EXPECT_EQ(slurp("result.json"), slurp("clean.json"));
}

TEST_F(PreemptRaceTest, KillRacingTheCheckpointLeavesOnlyIntactSnapshots) {
  // The daemon kills whenever higher-priority work arrives, so the kill
  // can race a periodic checkpoint write. Atomic publication means every
  // *.emxsnap that exists at all is whole, so resume always has an
  // intact (if slightly older) anchor.
  Clock& clock = real_clock();
  ProcessPool pool(clock);
  std::string err;
  ASSERT_GT(pool.start(checkpointing_worker(), 9, 0, err), 0) << err;

  // Let the periodic chain produce one checkpoint, then kill while the
  // next one is being written: its atomic-write temp file is on disk.
  ASSERT_FALSE(await_first_checkpoint(pool, clock).empty());
  const auto writing = [&] {
    for (const auto& entry : fs::directory_iterator(dir_ / "ck"))
      if (entry.path().filename().string().find(".emxtmp.") !=
          std::string::npos)
        return true;
    return false;
  };
  for (int i = 0; i < 5000 && !writing(); ++i) clock.sleep_ms(1);
  ASSERT_TRUE(pool.kill_child(9));
  const ExitStatus es = reap(pool, clock);
  EXPECT_TRUE(es.preempted);

  // Every snapshot present must parse whole; no torn files, and any
  // atomic-write temp left behind is not a resume candidate.
  std::size_t snaps = 0;
  for (const auto& entry : fs::directory_iterator(dir_ / "ck")) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 8 || name.substr(name.size() - 8) != ".emxsnap")
      continue;
    ++snaps;
    snapshot::RunManifest m;
    Cycle cycle = 0;
    EXPECT_EQ(snapshot::load_manifest(entry.path().string(),
                                      snapshot::FileKind::kCheckpoint, m,
                                      cycle),
              "")
        << name << " is torn";
  }
  EXPECT_GE(snaps, 1u);

  // And the newest intact one resumes to completion.
  const std::string ck = latest_checkpoint((dir_ / "ck").string(), "sort");
  ASSERT_FALSE(ck.empty());
  ASSERT_GT(pool.start(worker({"--resume=" + ck}), 10, 0, err), 0) << err;
  const ExitStatus done = reap(pool, clock);
  EXPECT_FALSE(done.signaled) << slurp("err.txt");
  EXPECT_EQ(done.code, 0) << slurp("err.txt");
}

}  // namespace
}  // namespace emx::jobs
