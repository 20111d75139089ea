// Durable job-core state: submits dedupe onto executions, terminal facts
// finish every attached job at once, cancels leave no orphans, and a
// store reopened over the same directory — journal compacted or not —
// converges to the same tables.
#include "jobs/job_store.hpp"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/test_dir.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

class JobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    out_ = (dir_ / "out").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Submission submit_req(const std::string& run_json,
                               const std::string& tenant = "default",
                               int priority = 0) {
    Submission sub;
    sub.tenant = tenant;
    sub.priority = priority;
    std::string err;
    const json::Value run = json::Value::parse(run_json, err);
    EXPECT_TRUE(err.empty() && parse_run(run, sub.job, err)) << err;
    sub.raw_run = run.dump();
    return sub;
  }

  /// The daemon's journal header; any fixed header serves the store.
  static JournalEntry serve_header() {
    JournalEntry h;
    h.event = "serve";
    h.raw_fields = {{"name", "\"serve\""}, {"version", "1"}};
    return h;
  }

  static constexpr const char* kRunA =
      R"({"app":"sort","procs":4,"threads":2,"size_per_proc":64})";
  static constexpr const char* kRunB =
      R"({"app":"sort","procs":4,"threads":2,"size_per_proc":64,"seed":2})";
  static constexpr const char* kResult = "{\"exit_code\":0,\"cycles\":42}\n";

  fs::path dir_;
  std::string out_;
};

TEST_F(JobStoreTest, SubmitCreatesJobAndPinnedExec) {
  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  JobRecord* job = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA, "alice", 3), job, err)) << err;
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->id, "j1");
  EXPECT_EQ(job->tenant, "alice");
  EXPECT_EQ(job->state, JobRecord::State::kLive);

  Exec* e = store.find_exec(job->key);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, Exec::State::kQueued);
  EXPECT_EQ(e->job_ids, std::vector<std::string>{"j1"});
  EXPECT_EQ(e->tenant, "alice");
  EXPECT_EQ(store.effective_priority(*e), 3);
  EXPECT_TRUE(store.cache().is_pinned(job->key))
      << "a live exec's key must be pinned against eviction";
  EXPECT_FALSE(store.all_terminal());
}

TEST_F(JobStoreTest, IdenticalRecipesShareOneExec) {
  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  JobRecord *j1 = nullptr, *j2 = nullptr, *j3 = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA, "alice", 2), j1, err)) << err;
  ASSERT_TRUE(store.submit(submit_req(kRunA, "bob", 8), j2, err)) << err;
  ASSERT_TRUE(store.submit(submit_req(kRunB, "bob", 1), j3, err)) << err;

  EXPECT_EQ(j1->key, j2->key);
  EXPECT_NE(j1->key, j3->key);
  ASSERT_EQ(store.execs().size(), 2u);
  Exec* shared = store.find_exec(j1->key);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->job_ids.size(), 2u);
  EXPECT_EQ(shared->tenant, "alice") << "fair-share owner is first attach";
  EXPECT_EQ(store.effective_priority(*shared), 8)
      << "effective priority is the max over attached jobs";

  // One result finishes both attached jobs.
  ASSERT_TRUE(store.record_start(*shared, false, err)) << err;
  ASSERT_TRUE(store.record_done(*shared, kResult, err)) << err;
  EXPECT_EQ(j1->state, JobRecord::State::kDone);
  EXPECT_EQ(j2->state, JobRecord::State::kDone);
  EXPECT_EQ(j1->status, "ok");
  EXPECT_EQ(j1->result_bytes, kResult);
  EXPECT_EQ(j3->state, JobRecord::State::kLive);
  EXPECT_FALSE(store.cache().is_pinned(j1->key))
      << "terminal execs release their pin";
}

TEST_F(JobStoreTest, CacheSatisfiesRepeatSubmitsImmediately) {
  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  JobRecord* first = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA), first, err)) << err;
  Exec* e = store.find_exec(first->key);
  ASSERT_TRUE(store.record_start(*e, false, err)) << err;
  ASSERT_TRUE(store.record_done(*e, kResult, err)) << err;

  JobRecord* again = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA), again, err)) << err;
  EXPECT_EQ(again->id, "j2");
  EXPECT_EQ(again->state, JobRecord::State::kDone);
  EXPECT_EQ(again->status, "cached");
  EXPECT_EQ(again->result_bytes, kResult);
  EXPECT_TRUE(store.all_terminal());
}

TEST_F(JobStoreTest, CancelQueuedErasesTheExec) {
  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  JobRecord* job = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA), job, err)) << err;
  const std::string key = job->key;

  bool found = false, was_live = false;
  std::string killed_key;
  ASSERT_TRUE(store.cancel("j1", found, was_live, killed_key, err)) << err;
  EXPECT_TRUE(found);
  EXPECT_TRUE(was_live);
  EXPECT_TRUE(killed_key.empty()) << "queued cancels kill nothing";
  EXPECT_EQ(job->state, JobRecord::State::kCanceled);
  EXPECT_EQ(store.find_exec(key), nullptr);
  EXPECT_FALSE(store.cache().is_pinned(key));

  // Unknown and already-terminal cancels are reported, not errors.
  ASSERT_TRUE(store.cancel("j9", found, was_live, killed_key, err)) << err;
  EXPECT_FALSE(found);
  ASSERT_TRUE(store.cancel("j1", found, was_live, killed_key, err)) << err;
  EXPECT_TRUE(found);
  EXPECT_FALSE(was_live);
}

TEST_F(JobStoreTest, CancelRunningHandsTheKillToTheDaemon) {
  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  JobRecord* job = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA), job, err)) << err;
  Exec* e = store.find_exec(job->key);
  ASSERT_TRUE(store.record_start(*e, false, err)) << err;

  bool found = false, was_live = false;
  std::string killed_key;
  ASSERT_TRUE(store.cancel("j1", found, was_live, killed_key, err)) << err;
  EXPECT_EQ(killed_key, job->key)
      << "a running exec outlives the cancel until the daemon reaps it";
  ASSERT_NE(store.find_exec(killed_key), nullptr);
  store.drop_exec(killed_key);
  EXPECT_EQ(store.find_exec(killed_key), nullptr);
}

TEST_F(JobStoreTest, ReplayConverges) {
  std::string key_a, key_c;
  {
    JobStore store;
    std::string err;
    ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
    JobRecord *a = nullptr, *b = nullptr, *c = nullptr;
    // j1 finishes; j2 cancels; j3 is mid-flight when the "crash" hits.
    ASSERT_TRUE(store.submit(submit_req(kRunA, "alice", 2), a, err)) << err;
    key_a = a->key;
    Exec* ea = store.find_exec(key_a);
    ASSERT_TRUE(store.record_start(*ea, false, err)) << err;
    ASSERT_TRUE(store.record_done(*ea, kResult, err)) << err;
    ASSERT_TRUE(store.submit(submit_req(kRunA, "bob", 1), b, err)) << err;
    EXPECT_EQ(b->status, "cached");
    ASSERT_TRUE(store.submit(submit_req(kRunB, "bob", 5), c, err)) << err;
    key_c = c->key;
    Exec* ec = store.find_exec(key_c);
    ASSERT_TRUE(store.record_start(*ec, false, err)) << err;
    ASSERT_TRUE(store.record_preempt(*ec, err)) << err;
    ASSERT_TRUE(store.record_start(*ec, true, err)) << err;
    // No clean shutdown: the journal is all that survives.
  }

  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  ASSERT_EQ(store.jobs().size(), 3u);
  const JobRecord* a = store.jobs().at("j1").id.empty()
                           ? nullptr
                           : &store.jobs().at("j1");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, JobRecord::State::kDone);
  EXPECT_EQ(a->status, "ok");
  EXPECT_EQ(a->result_bytes, kResult);
  EXPECT_EQ(store.jobs().at("j2").status, "cached");

  // The mid-flight exec came back queued (its worker died with the
  // daemon), attempt history intact, still pinned.
  const JobRecord& c = store.jobs().at("j3");
  EXPECT_EQ(c.state, JobRecord::State::kLive);
  Exec* ec = store.find_exec(key_c);
  ASSERT_NE(ec, nullptr);
  EXPECT_EQ(ec->state, Exec::State::kQueued);
  EXPECT_EQ(ec->attempts, 2u);
  EXPECT_EQ(ec->resumes, 1u);
  EXPECT_EQ(ec->preempts, 1u);
  EXPECT_TRUE(store.cache().is_pinned(key_c));
  EXPECT_FALSE(store.cache().is_pinned(key_a));

  // Job numbering continues where it left off.
  JobRecord* d = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA), d, err)) << err;
  EXPECT_EQ(d->id, "j4");
}

TEST_F(JobStoreTest, CompactionPreservesTerminalFactsAndCounters) {
  {
    JobStore store;
    std::string err;
    ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
    JobRecord* a = nullptr;
    ASSERT_TRUE(store.submit(submit_req(kRunA, "alice", 2), a, err)) << err;
    Exec* e = store.find_exec(a->key);
    ASSERT_TRUE(store.record_start(*e, false, err)) << err;
    ASSERT_TRUE(store.record_preempt(*e, err)) << err;
    ASSERT_TRUE(store.record_start(*e, true, err)) << err;
    ASSERT_TRUE(store.record_done(*e, kResult, err)) << err;
    JobRecord* b = nullptr;
    ASSERT_TRUE(store.submit(submit_req(kRunB), b, err)) << err;
    Exec* eb = store.find_exec(b->key);
    ASSERT_TRUE(store.record_start(*eb, false, err)) << err;
    ASSERT_TRUE(store.record_give_up(*eb, "exit-1", err)) << err;
    ASSERT_TRUE(store.all_terminal());
    ASSERT_TRUE(store.compact(/*drop_cached_reruns=*/false, err)) << err;
  }

  JobStore store;
  std::string err;
  ASSERT_TRUE(store.open(out_, 0, serve_header(), err)) << err;
  EXPECT_EQ(store.jobs().at("j1").status, "resumed:1");
  EXPECT_EQ(store.jobs().at("j1").result_bytes, kResult);
  EXPECT_EQ(store.jobs().at("j2").state, JobRecord::State::kFailed);
  EXPECT_EQ(store.jobs().at("j2").status, "failed:exit-1");
  // Counters ride the terminal record through compaction.
  const Exec* e = store.find_exec(store.jobs().at("j1").key);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->attempts, 2u);
  EXPECT_EQ(e->resumes, 1u);
  EXPECT_EQ(e->preempts, 1u);
  EXPECT_TRUE(store.all_terminal());

  JobRecord* d = nullptr;
  ASSERT_TRUE(store.submit(submit_req(kRunA), d, err)) << err;
  EXPECT_EQ(d->id, "j3");
  EXPECT_EQ(d->status, "cached") << "the compacted cache entry still hits";
}

}  // namespace
}  // namespace emx::jobs
