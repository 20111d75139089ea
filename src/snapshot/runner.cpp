#include "snapshot/runner.hpp"

#include <cstdio>
#include <memory>

#include "common/fsio.hpp"
#include "common/json.hpp"
#include "core/machine.hpp"
#include "snapshot/progress.hpp"
#include "snapshot/record_replay.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"
#include "workloads/registry.hpp"

namespace emx::snapshot {

namespace {

/// RunManifest -> the workload layer's driver-independent parameters.
workloads::Params workload_params(const RunManifest& m) {
  workloads::Params p;
  p.size_per_proc = m.size_per_proc;
  p.threads = m.threads;
  p.iterations = m.iterations;
  p.seed = m.seed;
  p.block_reads = m.block_reads;
  p.local_phase = m.local_phase;
  return p;
}

std::string checkpoint_path(const std::string& dir, const std::string& app,
                            Cycle cycle) {
  char name[96];
  std::snprintf(name, sizeof name, "%s-c%012llu.emxsnap", app.c_str(),
                static_cast<unsigned long long>(cycle));
  return dir + "/" + name;
}

std::uint64_t live_thread_count(Machine& machine) {
  std::uint64_t total = 0;
  for (ProcId p = 0; p < machine.config().proc_count; ++p)
    total += machine.pe(p).engine().frames().live();
  return total;
}

}  // namespace

std::string load_manifest(const std::string& path, FileKind expected,
                          RunManifest& manifest, Cycle& cycle) {
  SnapshotFile file;
  std::string err = file.read_file(path);
  if (!err.empty()) return err;
  if (file.kind != expected) {
    return path + ": expected a " +
           (expected == FileKind::kCheckpoint ? "checkpoint" : "recording") +
           " but the file is a " +
           (file.kind == FileKind::kCheckpoint ? "checkpoint" : "recording");
  }
  cycle = 0;
  if (expected == FileKind::kCheckpoint)
    return read_header(file, manifest, cycle);

  const Section* header = file.find("manifest");
  if (header == nullptr) return path + ": recording has no manifest section";
  Deserializer d(header->payload);
  if (!manifest.load(d)) return path + ": recording manifest is malformed";
  return "";
}

RunResult run(const RunOptions& opts) {
  RunResult r;
  const RunManifest& m = opts.manifest;
  const auto fail = [&r](int code, std::string why) {
    r.exit_code = code;
    r.error = std::move(why);
    return r;
  };

  // --- load resume checkpoint / replay recording up front (exit 2) ---
  SnapshotFile resume_file;
  Cycle resume_cycle = 0;
  bool resume_pending = false;
  if (!opts.resume_path.empty()) {
    std::string err = resume_file.read_file(opts.resume_path);
    if (!err.empty()) return fail(2, err);
    if (resume_file.kind != FileKind::kCheckpoint)
      return fail(2, opts.resume_path + ": not a checkpoint file");
    RunManifest saved;
    err = read_header(resume_file, saved, resume_cycle);
    if (!err.empty()) return fail(2, opts.resume_path + ": " + err);
    const std::string mismatch = saved.diff(m);
    if (!mismatch.empty())
      return fail(2, "resume manifest disagrees with the requested run "
                     "(snapshot vs flags):\n" +
                         mismatch);
    resume_pending = true;
  }

  ReplayVerifier replay;
  const bool replaying = !opts.replay_path.empty();
  if (replaying) {
    SnapshotFile rec;
    std::string err = rec.read_file(opts.replay_path);
    if (!err.empty()) return fail(2, err);
    err = replay.open(rec);
    if (!err.empty()) return fail(2, opts.replay_path + ": " + err);
    const std::string mismatch = replay.manifest().diff(m);
    if (!mismatch.empty())
      return fail(2, "replay manifest disagrees with the requested run "
                     "(recording vs flags):\n" +
                         mismatch);
  }

  const bool recording = !opts.record_path.empty();
  const Cycle digest_interval = replaying ? replay.interval() : opts.digest_every;
  if ((recording || replaying) && digest_interval == 0)
    return fail(2, "--digest-every must be positive");

  // --- prove every output path is creatable + writable up front: a bad
  // --checkpoint-dir/--record/--result-json must be exit 2 before the
  // first simulated cycle, not an error after hours were burned ---
  const bool checkpointing = opts.checkpoint_every > 0;
  if (checkpointing && opts.checkpoint_dir.empty())
    return fail(2, "--checkpoint-every needs --checkpoint-dir");
  if (!opts.checkpoint_dir.empty()) {
    const std::string err = fsio::ensure_writable_dir(opts.checkpoint_dir);
    if (!err.empty()) return fail(2, "--checkpoint-dir: " + err);
  }
  if (!opts.record_path.empty()) {
    const std::string err = fsio::probe_writable_file(opts.record_path);
    if (!err.empty()) return fail(2, "--record: " + err);
  }
  if (!opts.result_json_path.empty()) {
    const std::string err = fsio::probe_writable_file(opts.result_json_path);
    if (!err.empty()) return fail(2, "--result-json: " + err);
  }
  if (opts.progress_every > 0 && opts.progress_path.empty())
    return fail(2, "--progress-every needs --progress-file");
  if (!opts.progress_path.empty()) {
    // Truncate atomically: every attempt rewrites the heartbeat from its
    // own start, and a reader never sees a half-replaced file.
    const std::string err = fsio::atomic_write_file(opts.progress_path, "");
    if (!err.empty()) return fail(2, "--progress-file: " + err);
  }

  // --- build the machine + workload from the manifest ---
  trace::DigestSink digest(opts.sink);
  Machine machine(m.config, &digest);
  std::unique_ptr<workloads::Workload> workload;
  {
    std::string err;
    workload = workloads::build(machine, m.app, workload_params(m), err);
    if (workload == nullptr) return fail(2, err);
  }

  Recorder recorder(m, digest_interval > 0 ? digest_interval : 1);

  // --- drive run_to() through the union of the pause schedules ---
  Cycle next_checkpoint = checkpointing ? opts.checkpoint_every : 0;
  Cycle next_digest = (recording || replaying) ? digest_interval : 0;
  Cycle next_progress = opts.progress_every > 0 ? opts.progress_every : 0;
  bool completed = false;
  while (!completed) {
    Cycle next = 0;  // 0 = run to completion
    const auto consider = [&next](Cycle c) {
      if (c > 0 && (next == 0 || c < next)) next = c;
    };
    if (next_checkpoint > 0) consider(next_checkpoint);
    if (next_digest > 0) consider(next_digest);
    if (next_progress > 0) consider(next_progress);
    if (resume_pending) consider(resume_cycle);

    completed = !machine.run_to(next);
    const Cycle here = completed ? machine.end_cycle() : next;

    if (resume_pending && (completed || here >= resume_cycle)) {
      // The fast-forward reached the checkpoint's cycle (or the run ended
      // first, e.g. resuming a crash dump): prove the rebuilt machine is
      // byte-identical to the saved one before going further.
      const std::string divergent = verify(machine, resume_file);
      if (!divergent.empty())
        return fail(5, "resume verification failed: section " + divergent);
      resume_pending = false;
      if (completed || here > resume_cycle) continue;  // not a scheduled pause
    }
    if (completed) break;

    if (next_digest == here) {
      if (recording) recorder.frame(machine, here);
      if (replaying) {
        const std::string err = replay.frame(machine, here);
        if (!err.empty()) return fail(5, err);
      }
      next_digest += digest_interval;
    }
    if (next_checkpoint == here) {
      const std::string path = checkpoint_path(opts.checkpoint_dir, m.app, here);
      const SnapshotFile ckpt = capture(machine, m, here);
      const std::string err = ckpt.write_file(path);
      if (!err.empty()) return fail(2, err);
      r.checkpoints_written.push_back(path);
      next_checkpoint += opts.checkpoint_every;
    }
    if (next_progress == here) {
      ProgressRecord rec;
      rec.cycle = here;
      rec.live_threads = live_thread_count(machine);
      rec.checkpoints = r.checkpoints_written.size();
      const std::string err = fsio::append_line_fsync(
          opts.progress_path, format_progress_line(rec));
      if (!err.empty()) return fail(2, "--progress-file: " + err);
      next_progress += opts.progress_every;
    }
  }

  // --- completion: final digest frame, recording write-out, report ---
  r.end_cycle = machine.end_cycle();
  if (opts.progress_every > 0) {
    ProgressRecord rec;
    rec.cycle = r.end_cycle;
    rec.live_threads = live_thread_count(machine);
    rec.checkpoints = r.checkpoints_written.size();
    rec.done = true;
    const std::string err = fsio::append_line_fsync(
        opts.progress_path, format_progress_line(rec));
    if (!err.empty()) return fail(2, "--progress-file: " + err);
  }
  if (recording) {
    recorder.frame(machine, r.end_cycle);
    const std::string err = recorder.write(opts.record_path);
    if (!err.empty()) return fail(2, err);
  }
  if (replaying) {
    std::string err = replay.frame(machine, r.end_cycle);
    if (err.empty()) err = replay.finish(r.end_cycle);
    if (!err.empty()) return fail(5, err);
  }

  r.report = machine.report();
  workload->contribute(r.report);
  r.report_valid = true;
  r.trace_events = digest.count();
  r.trace_crc = digest.crc();
  // A watchdog-stopped run never quiesced; its result is undefined.
  if (opts.verify_result && !machine.watchdog_fired() &&
      workload->verifiable()) {
    r.result_checked = true;
    r.result_ok = workload->verify();
  }

  if (r.report.watchdog_fired) {
    r.exit_code = 4;
  } else if (r.result_checked && !r.result_ok) {
    r.exit_code = 1;
  } else if (r.report.check_enabled && !r.report.check.clean()) {
    r.exit_code = 3;
  }

  // Automatic crash dump: a stalled or buggy run leaves its full state
  // behind for offline forensics, exactly the sections a resume verifies.
  if ((r.exit_code == 3 || r.exit_code == 4) && !opts.checkpoint_dir.empty()) {
    const std::string path =
        opts.checkpoint_dir + "/crash-" + m.app + ".emxsnap";
    const SnapshotFile dump = capture(machine, m, r.end_cycle);
    if (dump.write_file(path).empty()) r.crash_dump_path = path;
  }

  // Machine-readable result summary, published atomically so a reader
  // (the job core) never sees a torn file.
  if (!opts.result_json_path.empty()) {
    const std::string err =
        fsio::atomic_write_file(opts.result_json_path, result_json(m, r) + "\n");
    if (!err.empty()) {
      r.exit_code = 2;
      r.error = "--result-json: " + err;
    }
  }
  return r;
}

std::string result_json(const RunManifest& m, const RunResult& r) {
  Serializer manifest_bytes;
  m.save(manifest_bytes);

  json::Value v = json::Value::object();
  v.set("schema", json::Value::integer(1));
  v.set("app", json::Value::string(m.app));
  v.set("procs", json::Value::integer(m.config.proc_count));
  v.set("size_per_proc",
        json::Value::integer(static_cast<std::int64_t>(m.size_per_proc)));
  v.set("threads", json::Value::integer(m.threads));
  v.set("iterations", json::Value::integer(m.iterations));
  v.set("seed", json::Value::integer(static_cast<std::int64_t>(m.seed)));
  v.set("manifest_crc",
        json::Value::string(ser::crc_hex(manifest_bytes.crc())));
  v.set("exit_code", json::Value::integer(r.exit_code));
  v.set("cycles", json::Value::integer(static_cast<std::int64_t>(r.end_cycle)));
  // null when verification did not run (--verify=false, watchdog stop).
  v.set("verified", r.result_checked ? json::Value::boolean(r.result_ok)
                                     : json::Value());
  const MachineReport::Shares s = r.report.shares();
  v.set("compute_pct", json::Value::real(s.compute));
  v.set("overhead_pct", json::Value::real(s.overhead));
  v.set("comm_pct", json::Value::real(s.comm));
  v.set("switch_pct", json::Value::real(s.switching));
  v.set("trace_events",
        json::Value::integer(static_cast<std::int64_t>(r.trace_events)));
  v.set("trace_crc", json::Value::string(ser::crc_hex(r.trace_crc)));
  return v.dump();
}

}  // namespace emx::snapshot
