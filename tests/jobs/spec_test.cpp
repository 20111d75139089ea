// SweepSpec — grid expansion, manifest keys, worker flag round-trips.
#include "jobs/spec.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace emx::jobs {
namespace {

SweepSpec parse_ok(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_TRUE(SweepSpec::from_json(text, spec, err)) << err;
  return spec;
}

std::string parse_err(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_FALSE(SweepSpec::from_json(text, spec, err)) << text;
  EXPECT_NE(err, "");
  return err;
}

std::vector<JobSpec> expand_ok(const SweepSpec& spec) {
  std::vector<JobSpec> jobs;
  std::string err;
  EXPECT_TRUE(spec.expand(jobs, err)) << err;
  return jobs;
}

TEST(SweepSpec, ExpandsTheFullGridInDeterministicOrder) {
  SweepSpec spec;
  spec.apps = {"sort", "bfs"};
  spec.procs = {4, 8};
  spec.threads = {1, 2};
  spec.sizes_per_proc = {64};
  spec.seeds = {1, 2};
  const std::vector<JobSpec> jobs = expand_ok(spec);
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u * 2u);
  // apps → procs → sizes → threads → seeds, first cell first.
  EXPECT_EQ(jobs[0].manifest.app, "sort");
  EXPECT_EQ(jobs[0].manifest.config.proc_count, 4u);
  EXPECT_EQ(jobs[0].manifest.threads, 1u);
  EXPECT_EQ(jobs[0].manifest.seed, 1u);
  EXPECT_EQ(jobs[1].manifest.seed, 2u);
  EXPECT_EQ(jobs.back().manifest.app, "bfs");
  EXPECT_EQ(jobs.back().manifest.config.proc_count, 8u);

  // Keys are unique and stable across a second expansion.
  std::set<std::string> keys;
  for (const JobSpec& j : jobs) EXPECT_TRUE(keys.insert(j.key).second);
  const std::vector<JobSpec> again = expand_ok(spec);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(jobs[i].key, again[i].key);
}

TEST(SweepSpec, EmptyThreadsAndSizesAdoptRegistryDefaults) {
  SweepSpec spec;
  spec.apps = {"sort"};
  spec.procs = {4};
  const std::vector<JobSpec> jobs = expand_ok(spec);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_GT(jobs[0].manifest.size_per_proc, 0u);
  EXPECT_GT(jobs[0].manifest.threads, 0u);
}

TEST(SweepSpec, UnknownAppIsAReadableError) {
  SweepSpec spec;
  spec.apps = {"bogus"};
  std::vector<JobSpec> jobs;
  std::string err;
  EXPECT_FALSE(spec.expand(jobs, err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(SweepSpec, KeyEncodesEveryGridCoordinateAndTheManifestCrc) {
  SweepSpec spec;
  spec.apps = {"sort"};
  spec.procs = {4};
  spec.threads = {2};
  spec.sizes_per_proc = {64};
  spec.seeds = {7};
  const std::vector<JobSpec> jobs = expand_ok(spec);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].key.rfind("sort-p4-n64-h2-s7-", 0), 0u) << jobs[0].key;

  // A config change invisible in the coordinates still changes the key.
  SweepSpec detailed = spec;
  detailed.base.config.network = NetworkModel::kDetailed;
  const std::vector<JobSpec> other = expand_ok(detailed);
  EXPECT_NE(jobs[0].key, other[0].key);
}

TEST(SweepSpec, WorkerFlagsReproduceTheManifest) {
  SweepSpec spec;
  spec.apps = {"fft"};
  spec.procs = {8};
  spec.threads = {3};
  spec.sizes_per_proc = {128};
  spec.seeds = {5};
  spec.base.iterations = 4;
  spec.base.config.network = NetworkModel::kDetailed;
  spec.base.config.fault.drop_rate = 0.015625;
  const std::vector<JobSpec> jobs = expand_ok(spec);
  ASSERT_EQ(jobs.size(), 1u);
  const std::vector<std::string> flags = worker_flags(jobs[0].manifest);
  const auto has = [&flags](const std::string& f) {
    for (const std::string& x : flags)
      if (x == f) return true;
    return false;
  };
  EXPECT_TRUE(has("--app=fft"));
  EXPECT_TRUE(has("--procs=8"));
  EXPECT_TRUE(has("--size-per-proc=128"));
  EXPECT_TRUE(has("--threads=3"));
  EXPECT_TRUE(has("--seed=5"));
  EXPECT_TRUE(has("--iterations=4"));
  EXPECT_TRUE(has("--network=detailed"));
  EXPECT_TRUE(has("--fault-drop-rate=0.015625"));
}

TEST(SweepSpec, JsonSpecParsesGridBaseAndName) {
  const SweepSpec spec = parse_ok(R"({
    "name": "fig6",
    "grid": {"apps": ["sort"], "procs": [4, 8], "threads": [2],
             "sizes_per_proc": [64], "seeds": [1]},
    "base": {"network": "detailed", "iterations": 4,
             "fault-drop-rate": 0.01, "priority-replies": true}
  })");
  EXPECT_EQ(spec.name, "fig6");
  EXPECT_EQ(spec.procs, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(spec.base.config.network, NetworkModel::kDetailed);
  EXPECT_EQ(spec.base.iterations, 4u);
  EXPECT_DOUBLE_EQ(spec.base.config.fault.drop_rate, 0.01);
  EXPECT_TRUE(spec.base.config.priority_replies);
  EXPECT_EQ(expand_ok(spec).size(), 2u);
}

TEST(SweepSpec, UnknownKeysAnywhereAreErrors) {
  EXPECT_NE(parse_err(R"({"grid": {"apps": ["sort"]}, "typo": 1})")
                .find("typo"),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"grid": {"apps": ["sort"], "procz": [4]}})")
                .find("procz"),
            std::string::npos);
  EXPECT_NE(parse_err(
                R"({"grid": {"apps": ["sort"]}, "base": {"watchdags": 5}})")
                .find("watchdags"),
            std::string::npos);
  parse_err("{\"grid\":{}}");        // no apps
  parse_err("not json");
  parse_err(R"({"grid": {"apps": [1]}})");  // wrong element type
}

TEST(SweepSpec, DigestTracksEveryAxisAndBaseKnob) {
  SweepSpec a;
  a.apps = {"sort"};
  SweepSpec b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.procs = {4};
  EXPECT_NE(a.digest(), b.digest());
  SweepSpec c = a;
  c.base.config.fault.drop_rate = 0.5;
  EXPECT_NE(a.digest(), c.digest());
}

TEST(SweepSpec, ZeroGridValuesAreRejected) {
  SweepSpec spec;
  spec.apps = {"sort"};
  spec.procs = {0};
  std::vector<JobSpec> jobs;
  std::string err;
  EXPECT_FALSE(spec.expand(jobs, err));
  EXPECT_NE(err, "");
}

TEST(SweepSpec, CellsAWorkerWouldRefuseFailExpansion) {
  // Each parses (the values have the knobs' types) but no worker could
  // run the cells, so the sweep refuses them up front instead of
  // retrying aborts or bad-input exits.
  const char* bases[][2] = {
      {R"("poll-interval": 0)", "poll-interval"},
      {R"("fault-drop-rate": 0.6, "fault-dup-rate": 0.6)", "sum"},
      {R"("network": "detailed")", "power-of-two"},
  };
  for (const auto& [base, named] : bases) {
    const SweepSpec spec = parse_ok(
        std::string(R"({"grid": {"apps": ["sort"], "procs": [6]}, "base": {)") +
        base + "}}");
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(jobs, err)) << base;
    EXPECT_NE(err.find(named), std::string::npos) << err;
  }
}

TEST(SweepSpec, CheckersInTheBaseKeyBackThroughTheRunObject) {
  const SweepSpec spec = parse_ok(
      R"({"grid": {"apps": ["sort"], "procs": [4]},
          "base": {"check": "race,lint"}})");
  EXPECT_TRUE(spec.base.config.check.race);
  EXPECT_TRUE(spec.base.config.check.lint);
  const std::vector<JobSpec> jobs = expand_ok(spec);
  ASSERT_EQ(jobs.size(), 1u);
  JobSpec back;
  std::string err;
  ASSERT_TRUE(parse_run(run_object(jobs[0].manifest), back, err)) << err;
  EXPECT_EQ(back.key, jobs[0].key);
}

TEST(SweepSpec, UnknownKnobErrorsListTheVocabulary) {
  const std::string base =
      parse_err(R"({"grid": {"apps": ["sort"]}, "base": {"procs": 4}})");
  EXPECT_NE(base.find("unknown base knob 'procs'"), std::string::npos) << base;
  EXPECT_NE(base.find("poll-interval"), std::string::npos) << base;
  EXPECT_NE(base.find("check"), std::string::npos) << base;

  JobSpec job;
  std::string err;
  std::string perr;
  EXPECT_FALSE(parse_run(json::Value::parse(R"({"app":"sort","x":1})", perr),
                         job, err));
  EXPECT_NE(err.find("unknown run knob 'x'"), std::string::npos) << err;
  EXPECT_NE(err.find("size_per_proc"), std::string::npos) << err;
}

}  // namespace
}  // namespace emx::jobs
