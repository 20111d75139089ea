// The knob table: every knob round-trips through each vocabulary that
// carries a recipe — emx_run flags, worker argv and daemon run objects —
// and problem() refuses the recipes a worker would refuse.
#include "snapshot/knobs.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/serializer.hpp"
#include "jobs/spec.hpp"

namespace emx::snapshot {
namespace {

std::uint32_t crc(const RunManifest& m) {
  Serializer s;
  m.save(s);
  return s.crc();
}

/// A small runnable cell, the starting point every knob is moved from.
RunManifest cell() {
  RunManifest m = default_recipe();
  m.app = "sort";
  m.config.proc_count = 4;
  m.threads = 2;
  m.size_per_proc = 64;
  return m;
}

/// Moves knob `k` of `m` off its current value, keeping `m` runnable.
void move_off(const Knob& k, RunManifest& m) {
  std::visit(
      [](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, std::string>) {
          *p = "fft";
        } else if constexpr (std::is_same_v<T, bool>) {
          *p = !*p;
        } else if constexpr (std::is_same_v<T, double>) {
          *p = 0.25;
        } else if constexpr (std::is_enum_v<T>) {
          *p = static_cast<T>(1 - static_cast<int>(*p));
        } else if constexpr (std::is_same_v<T, analysis::CheckConfig>) {
          *p = analysis::CheckConfig::parse("race,lint");
        } else {
          *p += 1;
        }
      },
      k.field(m));
}

TEST(Knobs, EveryKnobRoundTripsThroughWorkerFlagsAndRunObjects) {
  for (const Knob& k : knobs()) {
    SCOPED_TRACE(k.name);
    RunManifest m = cell();
    const std::string before = k.text(m);
    move_off(k, m);
    ASSERT_NE(k.text(m), before);
    ASSERT_EQ(problem(m), "");

    // Worker argv → the flag parser emx_run runs → the same manifest.
    const std::vector<std::string> argv = jobs::worker_flags(m);
    bool named = false;
    for (const std::string& f : argv)
      named |= f == "--" + std::string(k.name) + "=" + k.text(m);
    EXPECT_TRUE(named) << "worker flags do not name the knob";
    std::vector<const char*> args{"emx_run"};
    for (const std::string& f : argv) args.push_back(f.c_str());
    CliFlags flags;
    define_flags(flags, RunManifest{});
    flags.parse(static_cast<int>(args.size()), args.data());
    RunManifest back;
    ASSERT_EQ(apply_flags(flags, back, /*only_explicit=*/false), "");
    EXPECT_EQ(back.diff(m), "");
    EXPECT_EQ(crc(back), crc(m));

    // Run object → parse_run → the same cell key.
    jobs::JobSpec job;
    std::string err;
    ASSERT_TRUE(jobs::parse_run(jobs::run_object(m), job, err)) << err;
    EXPECT_EQ(job.key, jobs::job_key(m));
  }
}

TEST(Knobs, ArgvRunObjectAndKeyBytesArePinned) {
  // Cell keys, worker argv and journaled run objects are what caches and
  // journals written by earlier builds are matched against; these bytes
  // must not move when the vocabulary code does.
  jobs::SweepSpec spec;
  std::string err;
  ASSERT_TRUE(jobs::SweepSpec::from_json(
      R"({"grid": {"apps": ["sort"], "procs": [4], "threads": [2],
                   "sizes_per_proc": [64], "seeds": [3]},
          "base": {"iterations": 3, "block-reads": true,
                   "local-phase": false, "network": "detailed",
                   "read-service": "em4", "barrier": "tree",
                   "priority-replies": true, "switch-save": 5,
                   "dma-service": 17, "dma-interval": 33,
                   "poll-interval": 25, "watchdog": 1000000,
                   "fault-drop-rate": 0.01, "fault-dup-rate": 0.02,
                   "fault-corrupt-rate": 0.005, "fault-jitter-max": 3,
                   "fault-seed": 7, "fault-timeout": 5000,
                   "fault-max-retries": 12, "fault-reliability": false}})",
      spec, err))
      << err;
  std::vector<jobs::JobSpec> cells;
  ASSERT_TRUE(spec.expand(cells, err)) << err;
  ASSERT_EQ(cells.size(), 1u);
  const RunManifest& m = cells[0].manifest;
  EXPECT_EQ(cells[0].key, "sort-p4-n64-h2-s3-b20fbb25");
  std::string argv;
  for (const std::string& f : jobs::worker_flags(m)) argv += " " + f;
  EXPECT_EQ(argv,
            " --app=sort --procs=4 --size-per-proc=64 --threads=2 --seed=3"
            " --iterations=3 --block-reads=true --local-phase=false"
            " --network=detailed --read-service=em4 --barrier=tree"
            " --priority-replies=true --switch-save=5 --dma-service=17"
            " --dma-interval=33 --poll-interval=25 --watchdog=1000000"
            " --fault-drop-rate=0.01 --fault-dup-rate=0.02"
            " --fault-corrupt-rate=0.005 --fault-jitter-max=3 --fault-seed=7"
            " --fault-timeout=5000 --fault-max-retries=12"
            " --fault-reliability=false");
  EXPECT_EQ(jobs::run_object(m).dump(),
            R"({"app":"sort","procs":4,"size_per_proc":64,"threads":2,)"
            R"("seed":3,"iterations":3,"block-reads":true,)"
            R"("local-phase":false,"network":"detailed",)"
            R"("read-service":"em4","barrier":"tree",)"
            R"("priority-replies":true,"switch-save":5,"dma-service":17,)"
            R"("dma-interval":33,"poll-interval":25,"watchdog":1000000,)"
            R"("fault-drop-rate":0.01,"fault-dup-rate":0.02,)"
            R"("fault-corrupt-rate":0.005,"fault-jitter-max":3,)"
            R"("fault-seed":7,"fault-timeout":5000,"fault-max-retries":12,)"
            R"("fault-reliability":false})");
}

TEST(Knobs, FlagDefaultsAreTheDefaultsManifestAndStayOffTheArgv) {
  const RunManifest d = cell();
  CliFlags flags;
  define_flags(flags, d);
  const char* argv[] = {"emx_run"};
  flags.parse(1, argv);
  RunManifest back;
  ASSERT_EQ(apply_flags(flags, back, /*only_explicit=*/false), "");
  EXPECT_EQ(back.diff(d), "");

  // Only coordinates and pinned knobs reach a default cell's argv.
  std::size_t always = 0;
  for (const Knob& k : knobs()) always += k.role != Knob::Role::kKnob;
  EXPECT_EQ(jobs::worker_flags(d).size(), always);
}

TEST(Knobs, MisspelledChoicesAreRefusedWithTheAllowedValues) {
  for (const Knob& k : knobs()) {
    if (!k.is_choice()) continue;
    RunManifest m;
    const std::string why = k.set(m, std::string(k.choices[1]) + "x");
    EXPECT_NE(why.find(k.choices[0]), std::string::npos) << why;
    EXPECT_NE(why.find(k.choices[1]), std::string::npos) << why;
    EXPECT_EQ(k.set(m, json::Value::integer(1)), why);
    EXPECT_EQ(k.set(m, std::string(k.choices[1])), "");
    EXPECT_EQ(k.text(m), k.choices[1]);
  }
}

TEST(Knobs, JsonValuesMustHaveTheKnobsOwnType) {
  RunManifest m;
  EXPECT_NE(find_knob("threads")->set(m, json::Value::string("2")), "");
  EXPECT_NE(find_knob("threads")->set(m, json::Value::integer(-1)), "");
  EXPECT_NE(find_knob("threads")->set(m, json::Value::integer(0)), "");
  EXPECT_NE(find_knob("procs")->set(m, json::Value::integer(1ll << 32)), "");
  EXPECT_NE(find_knob("block-reads")->set(m, json::Value::integer(1)), "");
  EXPECT_NE(find_knob("check")->set(m, json::Value::boolean(true)), "");
  EXPECT_NE(find_knob("check")->set(m, json::Value::string("raec")), "");
  EXPECT_EQ(find_knob("check")->set(m, json::Value::string("race")), "");
  EXPECT_TRUE(m.config.check.race);
  EXPECT_EQ(find_knob("size-per-proc"), nullptr) << "run key: size_per_proc";
}

TEST(Knobs, ProblemNamesTheConditionARecipeBreaks) {
  const auto broken = [](void (*edit)(RunManifest&)) {
    RunManifest m = cell();
    edit(m);
    return problem(m);
  };
  EXPECT_EQ(problem(cell()), "");
  EXPECT_NE(broken([](RunManifest& m) { m.threads = 0; }).find("threads"),
            std::string::npos);
  EXPECT_NE(broken([](RunManifest& m) { m.config.proc_count = 0; })
                .find("procs"),
            std::string::npos);
  EXPECT_NE(broken([](RunManifest& m) { m.config.barrier_poll_interval = 0; })
                .find("poll-interval"),
            std::string::npos);
  EXPECT_NE(broken([](RunManifest& m) {
              m.config.proc_count = 6;
              m.config.network = NetworkModel::kDetailed;
            }).find("power-of-two"),
            std::string::npos);
  EXPECT_NE(broken([](RunManifest& m) {
              m.config.fault.drop_rate = 0.6;
              m.config.fault.duplicate_rate = 0.6;
            }).find("sum"),
            std::string::npos);
  EXPECT_NE(broken([](RunManifest& m) {
              m.config.fault.outages.push_back({.pe = 4, .begin = 1, .end = 2});
            }).find("fault-outage"),
            std::string::npos);
  EXPECT_NE(broken([](RunManifest& m) { m.config.fault.max_retries = 0; })
                .find("fault-max-retries"),
            std::string::npos);
}

TEST(Knobs, DocsListEveryKnob) {
  std::ifstream in(std::string(EMX_SOURCE_DIR) + "/docs/JOBS.md");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  for (const Knob& k : knobs())
    EXPECT_NE(doc.find("| `" + std::string(k.key()) + "` |"),
              std::string::npos)
        << "docs/JOBS.md's knob table does not list " << k.key();
}

}  // namespace
}  // namespace emx::snapshot
