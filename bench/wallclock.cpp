// Simulator throughput benchmark: simulated cycles per wall-second.
//
// Runs the frozen-cycle workloads (sort, fft, plus the irregular suite:
// bfs, spmv, ptrchase, histsort) at each app's registry-default flags
// through snapshot::run() — the same end-to-end path every real
// invocation takes, trace digest included — N times each and reports the
// median. Each app's reps run in a forked child, whose peak resident set
// (ru_maxrss from wait4) is therefore that app's alone, on any kernel.
// Results land in BENCH_wallclock.json at the repo root; the checked-in
// copy is the perf trajectory. CI's perf-smoke job builds this bench
// from the merge base and from the change on the same runner, records
// the merge base's numbers into a scratch JSON, and runs the change's
// `wallclock --check` against it, failing a sort throughput more than
// 15% below the merge base's (sort stays the gate: it is the
// longest-recorded series).
//
// Modes:
//   wallclock                         measure, write --json
//   wallclock --check                 measure, compare against --json,
//                                     exit 1 if sort falls below 85%
//   wallclock --baseline-from=F       embed F's results as "baseline"
//                                     in the written file (before/after)
//
// Schema 5 is one row per app, each a single-threaded run of the one
// event loop (schema 4's "engine"/"threads" columns and "<app>-par4"
// rows went with the parallel engine).
//
// JSON layout contract (writer and --check parser agree on it): the
// top-level per-app objects, "sort" first, precede "baseline", so the
// first "cycles_per_sec" after the first "sort" key is the current
// value.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "snapshot/runner.hpp"
#include "workloads/registry.hpp"

namespace {

using emx::snapshot::RunManifest;
using emx::snapshot::RunOptions;
using emx::snapshot::RunResult;

/// emx_run's default recipe for one of the frozen-cycle workloads: the
/// registry's per-app defaults, P=16, seed 1 (the same run whose cycle
/// count the tests freeze).
RunManifest default_manifest(const std::string& app) {
  const emx::workloads::Spec* spec =
      emx::workloads::Registry::instance().find(app);
  if (spec == nullptr) {
    std::fprintf(stderr, "wallclock: %s\n",
                 emx::workloads::unknown_app_message(app).c_str());
    std::exit(2);
  }
  RunManifest m;
  m.app = app;
  m.size_per_proc = spec->default_size_per_proc;
  m.threads = spec->default_threads;
  m.seed = 1;
  m.config.proc_count = 16;
  return m;
}

struct Sample {
  std::uint64_t cycles = 0;
  double wall_seconds = 0;
  double cycles_per_sec = 0;
  long peak_rss_kb = 0;
};

Sample measure_once(const std::string& app) {
  RunOptions opts;
  opts.manifest = default_manifest(app);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = emx::snapshot::run(opts);
  const auto t1 = std::chrono::steady_clock::now();
  if (r.exit_code != 0) {
    std::fprintf(stderr, "wallclock: %s run failed (exit %d): %s\n",
                 app.c_str(), r.exit_code, r.error.c_str());
    std::exit(1);
  }
  Sample s;
  s.cycles = r.end_cycle;
  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (s.wall_seconds <= 0) s.wall_seconds = 1e-9;
  s.cycles_per_sec = static_cast<double>(s.cycles) / s.wall_seconds;
  return s;
}

Sample median_of(const std::string& app, int reps) {
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) samples.push_back(measure_once(app));
  // Median by throughput; cycle count is identical across reps (the
  // simulation is deterministic), so only the denominator varies.
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.cycles_per_sec < b.cycles_per_sec;
            });
  return samples[samples.size() / 2];
}

/// median_of() in a forked child, so the child's ru_maxrss is the peak
/// resident set of this app's reps alone.
Sample measure(const std::string& app, int reps) {
  int fds[2];
  std::fflush(nullptr);  // the child must not re-emit buffered output
  if (::pipe(fds) != 0) {
    std::perror("wallclock: pipe");
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("wallclock: fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    const Sample s = median_of(app, reps);
    const bool sent = ::write(fds[1], &s, sizeof s) == sizeof s;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  Sample s;
  const bool got = ::read(fds[0], &s, sizeof s) == sizeof s;
  ::close(fds[0]);
  int status = 0;
  struct rusage ru{};
  if (::wait4(pid, &status, 0, &ru) != pid || !got || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "wallclock: the %s measurement failed\n",
                 app.c_str());
    std::exit(1);
  }
  s.peak_rss_kb = ru.ru_maxrss;
  return s;
}

std::string json_object(const Sample& s) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"cycles\": %llu, \"wall_s_median\": %.6f, "
                "\"cycles_per_sec\": %.1f, \"peak_rss_kb\": %ld}",
                static_cast<unsigned long long>(s.cycles), s.wall_seconds,
                s.cycles_per_sec, s.peak_rss_kb);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extracts the current (non-baseline) cycles_per_sec for `app` from a
/// BENCH_wallclock.json produced by this tool. Relies on the layout
/// contract documented at the top of the file.
double recorded_throughput(const std::string& json, const std::string& app) {
  const auto app_pos = json.find("\"" + app + "\"");
  if (app_pos == std::string::npos) return 0;
  const auto key_pos = json.find("\"cycles_per_sec\"", app_pos);
  if (key_pos == std::string::npos) return 0;
  const auto colon = json.find(':', key_pos);
  if (colon == std::string::npos) return 0;
  return std::strtod(json.c_str() + colon + 1, nullptr);
}

/// Pulls the "sort"/"fft"/"label" entries out of a previous results file
/// so they can be embedded as the "baseline" block (before/after in one
/// file). Returns "" when the file is missing or unparsable.
std::string baseline_block(const std::string& path) {
  const std::string json = read_file(path);
  if (json.empty()) return {};
  const double sort_tp = recorded_throughput(json, "sort");
  const double fft_tp = recorded_throughput(json, "fft");
  if (sort_tp <= 0 || fft_tp <= 0) return {};
  auto extract = [&json](const std::string& app) -> std::string {
    const auto start = json.find('{', json.find("\"" + app + "\""));
    const auto end = json.find('}', start);
    if (start == std::string::npos || end == std::string::npos) return "{}";
    return json.substr(start, end - start + 1);
  };
  std::ostringstream out;
  out << "  \"baseline\": {\n"
      << "    \"sort\": " << extract("sort") << ",\n"
      << "    \"fft\": " << extract("fft") << "\n"
      << "  },\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  emx::CliFlags flags;
  flags.define("reps", "5", "repetitions per workload (median reported)")
      .define("json", "BENCH_wallclock.json", "results file to write/check")
      .define("check", "false",
              "gate mode: measure and fail if sort throughput falls >15% "
              "below the value recorded in --json")
      .define("baseline-from", "",
              "embed this results file as the \"baseline\" block");
  flags.parse(argc, argv);

  const int reps = static_cast<int>(flags.integer("reps"));
  const std::string json_path = flags.str("json");

  if (flags.boolean("check")) {
    const double recorded = recorded_throughput(read_file(json_path), "sort");
    if (recorded <= 0) {
      std::fprintf(stderr, "wallclock --check: no recorded sort throughput in %s\n",
                   json_path.c_str());
      return 2;
    }
    const Sample s = measure("sort", reps);
    const double floor = 0.85 * recorded;
    std::printf("perf-smoke: sort %.0f cycles/s (recorded %.0f, floor %.0f)\n",
                s.cycles_per_sec, recorded, floor);
    if (s.cycles_per_sec < floor) {
      std::fprintf(stderr,
                   "perf-smoke FAIL: sort throughput regressed more than 15%% "
                   "below the value recorded in %s\n",
                   json_path.c_str());
      return 1;
    }
    return 0;
  }

  // "sort" must stay first: the --check parser and the baseline
  // extractor both key off it (layout contract above).
  const std::vector<std::string> apps = {"sort", "fft",      "bfs",
                                         "spmv", "ptrchase", "histsort"};
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"wallclock\",\n"
      << "  \"schema\": 5,\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"flags\": \"registry defaults per app (procs=16 seed=1)\",\n";
  for (const std::string& app : apps) {
    const Sample s = measure(app, reps);
    std::printf(
        "%-9s cycles=%llu median_wall=%.4fs throughput=%.0f cycles/s "
        "peak_rss=%ldKiB\n",
        (app + ":").c_str(), static_cast<unsigned long long>(s.cycles),
        s.wall_seconds, s.cycles_per_sec, s.peak_rss_kb);
    out << "  \"" << app << "\": " << json_object(s) << ",\n";
  }
  if (!flags.str("baseline-from").empty())
    out << baseline_block(flags.str("baseline-from"));
  out << "  \"unit\": \"simulated cycles per wall-second\"\n"
      << "}\n";

  std::ofstream of(json_path, std::ios::binary);
  of << out.str();
  if (!of) {
    std::fprintf(stderr, "wallclock: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
