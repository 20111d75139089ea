// emx_run — the one-stop command-line driver for the EM-X simulator.
//
//   $ emx_run --app=sort --procs=16 --size-per-proc=1024 --threads=4
//   $ emx_run --app=fft --procs=64 --threads=2 --network=detailed
//   $ emx_run --app=sort --checkpoint-every=100000 --checkpoint-dir=ck
//   $ emx_run --resume=ck/sort-c000000200000.emxsnap
//   $ emx_run --app=fft --record=fft.rr
//   $ emx_run --replay=fft.rr
//
// Exposes every knob of the run-recipe table (snapshot/knobs.hpp), runs
// the chosen application, verifies the result, and prints the full
// measurement report (text or CSV).
//
// Checkpoint/resume and record/replay: a checkpoint stores the run recipe
// (manifest) plus every component's serialized state; --resume re-executes
// the recipe to the checkpoint cycle and byte-verifies the rebuilt machine
// before continuing. A recording stores periodic per-component digests;
// --replay re-executes and diffs them, naming the first divergent cycle
// window and component. With --resume/--replay, flags left at their
// defaults adopt the file's manifest; explicitly passed flags must agree
// with it (contradictions are exit 2, not silent overrides).
//
// Exit codes:
//   0  run completed, result verified (or --verify=false)
//   1  run completed but the application result is wrong
//   2  bad command line: an unknown flag, a knob value the knob table
//      refuses, a recipe snapshot::problem() refuses (a fault rate out
//      of range, network=detailed on a P that is not a power of two,
//      ...), a malformed --fault-outage spec, contradictory
//      --resume/--replay flags, a corrupt snapshot file, ...
//   3  result fine but an armed checker (--check) reported findings
//   4  the progress watchdog (--watchdog) stopped a stalled run;
//      the stall diagnosis is printed to stderr
//   5  snapshot divergence: --resume state verification failed, or
//      --replay digests differ from the recording
#include <cstdio>
#include <cstdlib>

#include "emx.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "snapshot/knobs.hpp"
#include "snapshot/runner.hpp"
#include "workloads/registry.hpp"

using namespace emx;

namespace {

void print_report(const MachineReport& report, bool csv) {
  if (!csv) {
    std::printf("%s\n", report.summary_text().c_str());
    const auto s = report.shares();
    std::printf(
        "breakdown: compute %.2f%%  overhead %.2f%%  comm %.2f%%  switch %.2f%%\n",
        s.compute, s.overhead, s.comm, s.switching);
  }
  Table table({"pe", "compute", "overhead", "switching", "read_service",
               "comm", "reads", "rr_switch", "ts_switch", "is_switch"});
  for (std::size_t p = 0; p < report.procs.size(); ++p) {
    const auto& pr = report.procs[p];
    table.add_row({std::to_string(p), Table::cell(pr.compute),
                   Table::cell(pr.overhead), Table::cell(pr.switching),
                   Table::cell(pr.read_service), Table::cell(pr.comm),
                   Table::cell(pr.reads_issued),
                   Table::cell(pr.switches.remote_read),
                   Table::cell(pr.switches.thread_sync),
                   Table::cell(pr.switches.iter_sync)});
  }
  std::fputs(csv ? table.to_csv().c_str() : table.to_text().c_str(), stdout);
}

/// Parses "pe:begin:end[,pe:begin:end...]" into outage windows. Returns
/// false (after printing a clear error) on any malformed token.
bool parse_outages(const std::string& spec,
                   std::vector<fault::OutageWindow>& out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    unsigned long long pe = 0, begin = 0, end = 0;
    char trailing = 0;
    if (std::sscanf(token.c_str(), "%llu:%llu:%llu%c", &pe, &begin, &end,
                    &trailing) != 3) {
      std::fprintf(stderr,
                   "emx_run: malformed --fault-outage token '%s' "
                   "(want pe:begin:end)\n",
                   token.c_str());
      return false;
    }
    if (end <= begin) {
      std::fprintf(stderr,
                   "emx_run: --fault-outage window '%s' is empty "
                   "(end must be > begin)\n",
                   token.c_str());
      return false;
    }
    out.push_back(fault::OutageWindow{static_cast<ProcId>(pe),
                                      static_cast<Cycle>(begin),
                                      static_cast<Cycle>(end)});
    pos = comma + 1;
  }
  return true;
}

/// Applies the knob flags and --fault-outage onto `m`: every flag, or
/// with `only_explicit` only those the user passed — the merge rule for
/// --resume and --replay, where defaults adopt the file's manifest and
/// explicit flags must agree with it. Returns false (error already
/// printed) on bad values.
bool apply_run_flags(const CliFlags& flags, snapshot::RunManifest& m,
                     bool only_explicit) {
  const std::string err = snapshot::apply_flags(flags, m, only_explicit);
  if (!err.empty()) {
    std::fprintf(stderr, "emx_run: %s\n", err.c_str());
    return false;
  }
  if (only_explicit && !flags.explicitly_set(snapshot::kFaultOutageFlag))
    return true;
  m.config.fault.outages.clear();
  return parse_outages(flags.str(snapshot::kFaultOutageFlag),
                       m.config.fault.outages);
}

/// The first flag passed that shapes the fault plan, or "". With
/// --replay the plan comes from the recording, so any is a
/// contradiction.
std::string explicit_fault_flag(const CliFlags& flags) {
  if (flags.explicitly_set(snapshot::kFaultOutageFlag))
    return snapshot::kFaultOutageFlag;
  for (const snapshot::Knob& k : snapshot::knobs())
    if (k.fault_plan() && flags.explicitly_set(k.name)) return k.name;
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  // The flag defaults: the shared recipe, running sort at its registered
  // size.
  snapshot::RunManifest defaults = snapshot::default_recipe();
  defaults.app = "sort";
  if (const auto* sort = workloads::Registry::instance().find(defaults.app)) {
    defaults.size_per_proc = sort->default_size_per_proc;
    defaults.threads = sort->default_threads;
  }
  CliFlags flags;
  snapshot::define_flags(flags, defaults);
  flags.define(snapshot::kFaultOutageFlag, "",
               "PE fail-stop windows: pe:begin:end[,...]")
      .define("list-apps", "false",
              "print every registered workload with its description and "
              "default sizes, then exit")
      .define("report", "text", "text | csv")
      .define("verify", "true", "check the application result")
      .define("checkpoint-every", "0",
              "write a full snapshot every N cycles (0 = off); needs "
              "--checkpoint-dir")
      .define("checkpoint-dir", "",
              "directory for checkpoints and automatic crash dumps "
              "(exit 3/4 runs leave crash-<app>.emxsnap here)")
      .define("resume", "",
              "checkpoint file: rebuild the run, fast-forward to its "
              "cycle, byte-verify the state, then continue")
      .define("record", "", "write a record-replay digest trace here")
      .define("replay", "",
              "recording file: re-run its manifest and diff state digests; "
              "first divergence exits 5")
      .define("digest-every", "65536",
              "record-replay digest frame interval, cycles")
      .define("result-json", "",
              "write a one-line machine-readable result summary here "
              "(atomic publish; deterministic across resume — the job "
              "core's cache currency)")
      .define("progress-every", "0",
              "append a CRC-framed progress record (cycle, live threads, "
              "checkpoint count) every N cycles (0 = off); needs "
              "--progress-file. Pure observer: cycles are byte-identical")
      .define("progress-file", "",
              "side file for --progress-every records (what emx_serve's "
              "watch streams); truncated at run start");
  flags.parse(argc, argv);

  if (flags.boolean("list-apps")) {
    for (const auto& spec : workloads::Registry::instance().specs()) {
      std::printf("%-12s %s\n%-12s defaults: size-per-proc=%llu threads=%u\n",
                  spec.name.c_str(), spec.description.c_str(), "",
                  static_cast<unsigned long long>(spec.default_size_per_proc),
                  spec.default_threads);
    }
    return 0;
  }

  const std::string resume_path = flags.str("resume");
  const std::string replay_path = flags.str("replay");
  const std::string record_path = flags.str("record");

  // Contradictory flag combinations are exit 2 before any work happens.
  if (!replay_path.empty() && !record_path.empty()) {
    std::fprintf(stderr,
                 "emx_run: --replay and --record are mutually exclusive "
                 "(a replay is checked against an existing recording)\n");
    return 2;
  }
  if (!replay_path.empty() && !resume_path.empty()) {
    std::fprintf(stderr,
                 "emx_run: --replay and --resume are mutually exclusive "
                 "(a replay must re-execute from cycle 0)\n");
    return 2;
  }
  if (const std::string f =
          replay_path.empty() ? "" : explicit_fault_flag(flags);
      !f.empty()) {
    std::fprintf(stderr,
                 "emx_run: --replay takes its fault plan from the "
                 "recording; --%s contradicts it\n",
                 f.c_str());
    return 2;
  }
  if (flags.integer("checkpoint-every") < 0) {
    std::fprintf(stderr, "emx_run: --checkpoint-every must be >= 0\n");
    return 2;
  }
  if (flags.integer("checkpoint-every") > 0 && flags.str("checkpoint-dir").empty()) {
    std::fprintf(stderr, "emx_run: --checkpoint-every needs --checkpoint-dir\n");
    return 2;
  }
  if (flags.integer("digest-every") < 1) {
    std::fprintf(stderr, "emx_run: --digest-every must be >= 1\n");
    return 2;
  }
  if (flags.integer("progress-every") < 0) {
    std::fprintf(stderr, "emx_run: --progress-every must be >= 0\n");
    return 2;
  }
  if (flags.integer("progress-every") > 0 && flags.str("progress-file").empty()) {
    std::fprintf(stderr, "emx_run: --progress-every needs --progress-file\n");
    return 2;
  }

  snapshot::RunManifest manifest;
  if (!resume_path.empty() || !replay_path.empty()) {
    const std::string& path = resume_path.empty() ? replay_path : resume_path;
    const auto kind = resume_path.empty() ? snapshot::FileKind::kRecording
                                          : snapshot::FileKind::kCheckpoint;
    Cycle at = 0;
    const std::string err = snapshot::load_manifest(path, kind, manifest, at);
    if (!err.empty()) {
      std::fprintf(stderr, "emx_run: %s\n", err.c_str());
      return 2;
    }
    // Defaults adopt the file's manifest; explicit flags must agree.
    snapshot::RunManifest merged = manifest;
    if (!apply_run_flags(flags, merged, /*only_explicit=*/true)) return 2;
    const std::string conflicts = manifest.diff(merged);
    if (!conflicts.empty()) {
      std::fprintf(stderr,
                   "emx_run: explicit flags contradict %s "
                   "(file vs flags):\n%s",
                   path.c_str(), conflicts.c_str());
      return 2;
    }
  } else {
    if (!apply_run_flags(flags, manifest, /*only_explicit=*/false)) return 2;
    // Fresh runs left at the size defaults adopt the workload's own
    // registered default sizes (resume/replay adopt the file's manifest
    // instead, so this never rewrites a snapshot's recipe).
    const workloads::Spec* spec =
        workloads::Registry::instance().find(manifest.app);
    if (spec != nullptr) {
      if (!flags.explicitly_set("size-per-proc"))
        manifest.size_per_proc = spec->default_size_per_proc;
      if (!flags.explicitly_set("threads"))
        manifest.threads = spec->default_threads;
    }
  }
  if (const std::string bad = snapshot::problem(manifest); !bad.empty()) {
    std::fprintf(stderr, "emx_run: %s\n", bad.c_str());
    return 2;
  }
  if (workloads::Registry::instance().find(manifest.app) == nullptr) {
    // Same diagnostic text the snapshot runner emits for a resumed
    // manifest naming an unknown app — one message, both paths, exit 2.
    std::fprintf(stderr, "emx_run: %s\n",
                 workloads::unknown_app_message(manifest.app).c_str());
    return 2;
  }

  snapshot::RunOptions opts;
  opts.manifest = manifest;
  opts.verify_result = flags.boolean("verify");
  opts.checkpoint_every = static_cast<Cycle>(flags.integer("checkpoint-every"));
  opts.checkpoint_dir = flags.str("checkpoint-dir");
  opts.resume_path = resume_path;
  opts.record_path = record_path;
  opts.replay_path = replay_path;
  opts.digest_every = static_cast<Cycle>(flags.integer("digest-every"));
  opts.result_json_path = flags.str("result-json");
  opts.progress_every = static_cast<Cycle>(flags.integer("progress-every"));
  opts.progress_path = flags.str("progress-file");

  const bool csv = flags.str("report") == "csv";
  const snapshot::RunResult result = snapshot::run(opts);
  if (!result.report_valid) {
    // Early failure (bad input, corrupt file, resume/replay divergence):
    // there is no report to print, only the cause.
    std::fprintf(stderr, "emx_run: %s\n", result.error.c_str());
    return result.exit_code;
  }

  const std::uint64_t n = manifest.size_per_proc * manifest.config.proc_count;
  if (!csv) {
    std::printf("%s\napp=%s n=%s h=%u — %s\n", manifest.config.summary().c_str(),
                manifest.app.c_str(), size_label(n).c_str(), manifest.threads,
                result.result_checked
                    ? (result.result_ok ? "VERIFIED" : "WRONG RESULT")
                    : "not verified");
  }
  print_report(result.report, csv);
  if (!result.report.app_metrics.empty() && !csv)
    std::printf("app metrics:\n%s",
                result.report.app_metrics_text().c_str());
  if (result.report.fault_enabled && !csv)
    std::fputs(result.report.fault.summary_text().c_str(), stdout);
  if (result.report.check_enabled && !csv)
    std::fputs(result.report.check.summary_text().c_str(), stdout);
  if (!result.checkpoints_written.empty() && !csv)
    std::printf("checkpoints: %zu written under %s\n",
                result.checkpoints_written.size(), opts.checkpoint_dir.c_str());
  if (!result.crash_dump_path.empty())
    std::fprintf(stderr, "emx_run: crash dump written to %s\n",
                 result.crash_dump_path.c_str());
  if (result.report.watchdog_fired) {
    // The run stalled and the watchdog cut it short: the stall diagnosis
    // outranks result/checker verdicts (there is no result to judge).
    std::fputs(result.report.watchdog_diagnosis.c_str(), stderr);
  }
  // Late-stage errors (e.g. the result-json publish failed after the run
  // completed) still carry a cause worth printing beside the report.
  if (!result.error.empty())
    std::fprintf(stderr, "emx_run: %s\n", result.error.c_str());
  return result.exit_code;
}
