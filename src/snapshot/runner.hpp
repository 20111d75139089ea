// The checkpoint/record/replay/resume run loop.
//
// run() owns the whole lifecycle emx_run and the snapshot tests share:
// build the machine from a RunManifest, construct + set up the workload,
// then drive Machine::run_to() through the union of the pause schedules —
// checkpoint boundaries, digest-frame boundaries, and the resume target —
// performing the right action at each pause. Completion runs the normal
// end-of-run pipeline (result verification, report) plus the snapshot
// extras (final digest frame, recording write-out, crash dumps).
//
// Exit-code mapping (RunResult::exit_code mirrors emx_run):
//   0 completed + verified    1 wrong result        2 bad input/corrupt file
//   3 checker findings        4 watchdog fired      5 snapshot/replay divergence
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/instrumentation.hpp"
#include "snapshot/format.hpp"
#include "snapshot/manifest.hpp"

namespace emx::trace {
class TraceSink;
}

namespace emx::snapshot {

struct RunOptions {
  RunManifest manifest;
  bool verify_result = true;

  /// Checkpointing: write a full snapshot every N cycles (0 = off) into
  /// `checkpoint_dir`. The directory is also where crash dumps land.
  Cycle checkpoint_every = 0;
  std::string checkpoint_dir;

  /// Resume: re-execute the manifest's recipe to the checkpoint's cycle,
  /// then byte-verify the rebuilt machine against its sections before
  /// continuing to completion. The caller must already have reconciled
  /// opts.manifest with the file's manifest (conflicts are exit 2).
  std::string resume_path;

  /// Record-replay. `digest_every` sets the recording frame interval; a
  /// replay always follows the interval stored in the recording.
  std::string record_path;
  std::string replay_path;
  Cycle digest_every = 65536;

  /// Progress heartbeat: append one CRC-framed record (cycle, live
  /// threads, checkpoint count) to `progress_path` every
  /// `progress_every` cycles, plus a final `done` record at completion.
  /// Off by default; arming it never changes a simulated cycle (pure
  /// observer, tested). The emx_serve daemon's `watch` streams these.
  Cycle progress_every = 0;
  std::string progress_path;

  /// When non-empty, a one-line machine-readable result summary is
  /// written here (atomically) once the run completes: the manifest's
  /// cell parameters, cycle count, verification verdict, breakdown
  /// shares and trace digest. The content is deterministic — a resumed
  /// run emits byte-identical JSON to an uninterrupted one — which is
  /// what lets a sweep byte-compare aggregates as its
  /// crash-convergence oracle. Like --checkpoint-dir and --record, the
  /// path is probed up front so a typo is exit 2 before cycles burn.
  std::string result_json_path;

  /// Optional extra trace sink, chained behind the runner's DigestSink.
  trace::TraceSink* sink = nullptr;
};

struct RunResult {
  int exit_code = 0;
  std::string error;  ///< human-readable cause for exit codes 2 and 5

  bool result_checked = false;  ///< result verification actually ran
  bool result_ok = true;
  Cycle end_cycle = 0;
  /// Digest of the full trace stream: two runs are trace-identical iff
  /// both pairs match (the round-trip determinism tests' oracle).
  std::uint64_t trace_events = 0;
  std::uint32_t trace_crc = 0;
  bool report_valid = false;  ///< false on the early exit-2 paths
  MachineReport report;

  std::vector<std::string> checkpoints_written;
  std::string crash_dump_path;  ///< non-empty when a dump was written
};

RunResult run(const RunOptions& opts);

/// The one-line result-summary JSON described at result_json_path (also
/// used by the sweep aggregate writer when re-serializing cached
/// cells). Deterministic for a deterministic run.
std::string result_json(const RunManifest& m, const RunResult& r);

/// Reads `path`, checks it is `expected` kind, and extracts the manifest
/// (and checkpoint cycle for checkpoints; recordings leave it 0). The
/// emx_run front end uses this for flag-conflict checks before handing
/// the reconciled manifest to run(). Returns "" on success.
std::string load_manifest(const std::string& path, FileKind expected,
                          RunManifest& manifest, Cycle& cycle);

}  // namespace emx::snapshot
