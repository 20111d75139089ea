// emx_perfbench — the benchmark's in-process driver.
//
// Two modes, both printing one JSON object on stdout:
//
//   emx_perfbench run   --app=sort --procs=64 --threads=8 --size-per-proc=1024
//                       --seed=1 --seconds=10 --setup-reps=5
//       Untraced. Times `setup-reps` machine+workload builds (the time
//       to the first simulated cycle), then calls snapshot::run()
//       back to back, closed loop, until `seconds` have passed. Each
//       iteration's wall time, cycle count, trace digest and verdict
//       are reported; the caller checks them.
//
//   emx_perfbench setup --app=... --setup-reps=3
//       Only the set-up timings of `run`.
//
//   emx_perfbench expand --apps=sort,fft --procs-list=16,64
//                        --threads-list=2,8 --seeds=1 --reps=20
//       Times jobs::SweepSpec::expand() on a grid, `reps` times.
//
//   emx_perfbench trace --app=... [--checkpoint-every=N] [--resume-at=C]
//                       --dir=D --seconds=S
//       Traced. One reference snapshot::run() (untraced, for the
//       overhead figure and the digest to reproduce), then traced
//       iterations until `seconds` have passed. A traced iteration
//       makes the same public calls snapshot::run() makes —
//       Machine::Machine, workloads::build, Machine::run_to,
//       snapshot::capture + SnapshotFile::write_file at each
//       checkpoint, Machine::report, Workload::verify — with a span
//       around each, followed by the same recipe with no trace sink
//       (the digest's cost is the run_to difference). --resume-at adds
//       the preempted-job path: checkpoint at cycle C, then
//       SnapshotFile::read_file, rebuild, re-execute to C and
//       snapshot::verify, then finish. Spans are kept in memory and
//       written once at the end; self times are computed by the
//       caller.
//
// Exit codes: 0 the JSON was printed (the caller judges correctness
// from it), 2 bad arguments.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/machine.hpp"
#include "jobs/spec.hpp"
#include "snapshot/runner.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"
#include "workloads/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using emx::Cycle;
using emx::snapshot::RunManifest;

struct Args {
  std::string mode;
  std::string app = "sort";
  std::uint32_t procs = 16;
  std::uint32_t threads = 0;        // 0 = registry default
  std::uint64_t size_per_proc = 0;  // 0 = registry default
  std::uint64_t seed = 1;
  double seconds = 1;
  int setup_reps = 3;
  Cycle checkpoint_every = 0;
  Cycle resume_at = 0;
  std::string dir = ".";
  // expand mode: a sweep grid, as emx_sweep's list flags.
  std::string apps, procs_list, threads_list, seeds;
  int reps = 1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "emx_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("usage: emx_perfbench run|trace --flag=value ...");
  Args a;
  a.mode = argv[1];
  if (a.mode != "run" && a.mode != "setup" && a.mode != "trace" && a.mode != "expand")
    usage("unknown mode " + a.mode);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      usage("expected --flag=value, got " + arg);
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    const auto num = [&]() {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("--" + key + " needs a number");
      return v;
    };
    if (key == "app") a.app = val;
    else if (key == "procs") a.procs = static_cast<std::uint32_t>(num());
    else if (key == "threads") a.threads = static_cast<std::uint32_t>(num());
    else if (key == "size-per-proc") a.size_per_proc = num();
    else if (key == "seed") a.seed = num();
    else if (key == "seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "setup-reps") a.setup_reps = static_cast<int>(num());
    else if (key == "checkpoint-every") a.checkpoint_every = num();
    else if (key == "resume-at") a.resume_at = num();
    else if (key == "dir") a.dir = val;
    else if (key == "apps") a.apps = val;
    else if (key == "procs-list") a.procs_list = val;
    else if (key == "threads-list") a.threads_list = val;
    else if (key == "seeds") a.seeds = val;
    else if (key == "reps") a.reps = static_cast<int>(num());
    else usage("unknown flag --" + key);
  }
  return a;
}

/// emx_run's recipe for these flags: registry defaults for anything
/// left at 0, fast network, no checkers, no faults.
RunManifest manifest_for(const Args& a) {
  const emx::workloads::Spec* spec =
      emx::workloads::Registry::instance().find(a.app);
  if (spec == nullptr) usage(emx::workloads::unknown_app_message(a.app));
  RunManifest m;
  m.app = a.app;
  m.size_per_proc = a.size_per_proc ? a.size_per_proc : spec->default_size_per_proc;
  m.threads = a.threads ? a.threads : spec->default_threads;
  m.seed = a.seed;
  m.config.proc_count = a.procs;
  return m;
}

/// The runner's RunManifest -> workloads::Params mapping.
emx::workloads::Params params_for(const RunManifest& m) {
  emx::workloads::Params p;
  p.size_per_proc = m.size_per_proc;
  p.threads = m.threads;
  p.iterations = m.iterations;
  p.seed = m.seed;
  p.block_reads = m.block_reads;
  p.local_phase = m.local_phase;
  return p;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User and system CPU seconds this process has used so far.
std::pair<double, double> cpu_seconds() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

/// A field of /proc/self/status ("VmRSS", "VmHWM") in MiB.
double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0)
      return static_cast<double>(std::strtol(line.c_str() + key.size(), nullptr, 10)) /
             1024.0;
  return 0;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// One closed span: a call into a layer, with the span that caused it
/// (-1 for an iteration's root) and the iteration it belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int iter = 0;
};

/// In-memory span recorder. open() returns the span's index; close()
/// must be called in LIFO order.
class Tracer {
 public:
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, since(t0_), 0, parent, iter_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (stack_.empty() || stack_.back() != idx) usage("span closed out of order");
    spans_[static_cast<std::size_t>(idx)].end = since(t0_);
    stack_.pop_back();
  }
  void next_iter() { ++iter_; }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += (i ? ",\n" : "\n");
      out += "{\"name\":\"" + s.name + "\",\"start\":" + num(s.start) +
             ",\"end\":" + num(s.end) + ",\"parent\":" + std::to_string(s.parent) +
             ",\"iter\":" + std::to_string(s.iter) + "}";
    }
    return out + "]";
  }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int iter_ = 0;
};

/// What one run produced, for the caller's correctness checks.
struct Outcome {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  int exit_code = 0;
  bool verified = false;
  Cycle cycles = 0;
  std::uint64_t trace_events = 0;
  std::uint32_t trace_crc = 0;

  std::string json() const {
    return "{\"wall_s\":" + num(wall_s) + ",\"user_s\":" + num(user_s) +
           ",\"sys_s\":" + num(sys_s) + ",\"exit_code\":" +
           std::to_string(exit_code) + ",\"verified\":" +
           (verified ? "true" : "false") + ",\"cycles\":" + num(cycles) +
           ",\"trace_events\":" + num(trace_events) + ",\"trace_crc\":\"" +
           hex32(trace_crc) + "\"}";
  }
};

Outcome run_untraced(const RunManifest& m, Cycle checkpoint_every = 0,
                     const std::string& checkpoint_dir = "") {
  emx::snapshot::RunOptions opts;
  opts.manifest = m;
  opts.checkpoint_every = checkpoint_every;
  opts.checkpoint_dir = checkpoint_dir;
  const auto cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const emx::snapshot::RunResult r = emx::snapshot::run(opts);
  Outcome o;
  o.wall_s = since(t0);
  const auto cpu1 = cpu_seconds();
  o.user_s = cpu1.first - cpu0.first;
  o.sys_s = cpu1.second - cpu0.second;
  o.exit_code = r.exit_code;
  o.verified = r.result_checked && r.result_ok;
  o.cycles = r.end_cycle;
  o.trace_events = r.trace_events;
  o.trace_crc = r.trace_crc;
  if (r.exit_code != 0)
    std::fprintf(stderr, "emx_perfbench: run exit %d: %s\n", r.exit_code,
                 r.error.c_str());
  return o;
}

/// Time to the first simulated cycle: machine plus workload build.
double time_setup(const RunManifest& m) {
  const auto t0 = Clock::now();
  emx::trace::DigestSink digest;
  emx::Machine machine(m.config, &digest);
  std::string err;
  const auto workload = emx::workloads::build(machine, m.app, params_for(m), err);
  const double s = since(t0);
  if (workload == nullptr) usage(err);
  return s;
}

std::string setup_samples(const RunManifest& m, int reps) {
  std::string setup = "[";
  for (int i = 0; i < reps; ++i) {
    setup += i ? "," : "";
    setup += num(time_setup(m));
  }
  return setup + "]";
}

int mode_setup(const Args& a) {
  std::printf("{\"setup_s\":%s}\n", setup_samples(manifest_for(a), a.setup_reps).c_str());
  return 0;
}

int mode_run(const Args& a) {
  const RunManifest m = manifest_for(a);
  const std::string setup = setup_samples(m, a.setup_reps);
  std::string iters = "[";
  const auto t0 = Clock::now();
  for (int i = 0; i == 0 || since(t0) < a.seconds; ++i) {
    iters += i ? ",\n" : "\n";
    iters += run_untraced(m).json();
  }
  iters += "]";
  std::printf("{\"setup_s\":%s,\n\"iterations\":%s,\n\"peak_rss_mb\":%s}\n",
              setup.c_str(), iters.c_str(), num(status_mb("VmHWM")).c_str());
  return 0;
}

/// Layer counts of one traced iteration, straight from the report.
std::string counts_json(const emx::MachineReport& r, std::uint64_t trace_events,
                        std::size_t checkpoints, std::uint64_t snapshot_bytes,
                        double build_rss_mb) {
  std::uint64_t reads = 0, block_reads = 0, writes = 0, accepted = 0, issued = 0;
  for (const emx::ProcReport& p : r.procs) {
    reads += p.dma_reads;
    block_reads += p.dma_block_reads;
    writes += p.dma_writes;
    accepted += p.packets_accepted;
    issued += p.reads_issued;
  }
  const emx::MachineReport::Shares s = r.shares();
  std::string out = "{";
  const auto put = [&out](const char* k, const std::string& v) {
    out += (out.size() > 1 ? "," : "") + std::string("\"") + k + "\":" + v;
  };
  put("cycles", num(r.total_cycles));
  put("events", num(r.events_processed));
  put("packets", num(r.network.packets_delivered));
  put("mean_latency_cycles", num(r.network.latency.mean()));
  put("peak_port_backlog", num(r.network.peak_port_backlog));
  put("dma_reads", num(reads));
  put("dma_block_reads", num(block_reads));
  put("dma_writes", num(writes));
  put("packets_accepted", num(accepted));
  put("compute_share", num(s.compute));
  put("overhead_share", num(s.overhead));
  put("comm_share", num(s.comm));
  put("switch_share", num(s.switching));
  put("reads_issued", num(issued));
  put("switches_remote_read", num(r.mean_remote_read_switches()));
  put("switches_thread_sync", num(r.mean_thread_sync_switches()));
  put("switches_iter_sync", num(r.mean_iter_sync_switches()));
  put("trace_events", num(trace_events));
  put("checkpoints", num(static_cast<std::uint64_t>(checkpoints)));
  put("snapshot_bytes", num(snapshot_bytes));
  put("build_rss_mb", num(build_rss_mb));
  return out + "}";
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

/// One traced iteration. Returns its outcome; `counts` receives the
/// layer counts.
Outcome traced_iteration(const Args& a, const RunManifest& m, Tracer& t,
                         std::string& counts, double& nosink_run_s) {
  Outcome o;
  std::size_t checkpoints = 0;
  std::uint64_t bytes = 0;
  std::string ckpt_path;
  const auto checkpoint = [&](const emx::Machine& machine, Cycle here) {
    int s = t.open("snapshot::capture");
    const emx::snapshot::SnapshotFile file = emx::snapshot::capture(machine, m, here);
    t.close(s);
    ckpt_path = a.dir + "/" + m.app + "-c" + std::to_string(here) + ".emxsnap";
    s = t.open("SnapshotFile::write_file");
    const std::string err = file.write_file(ckpt_path);
    t.close(s);
    if (!err.empty()) usage(err);
    ++checkpoints;
    bytes += file_size(ckpt_path);
  };

  const auto t0 = Clock::now();
  const int root = t.open("iteration");
  auto digest = std::make_unique<emx::trace::DigestSink>();
  int s = t.open("Machine::Machine");
  const double rss0 = status_mb("VmRSS");
  auto machine = std::make_unique<emx::Machine>(m.config, digest.get());
  const double build_rss = status_mb("VmRSS") - rss0;
  t.close(s);
  std::string err;
  s = t.open("workloads::build");
  auto workload = emx::workloads::build(*machine, m.app, params_for(m), err);
  t.close(s);
  if (workload == nullptr) usage(err);

  // The runner's pause schedule, reduced to checkpoints plus the one
  // preemption point.
  Cycle next_ckpt = a.checkpoint_every;
  bool preempt_pending = a.resume_at > 0;
  bool completed = false;
  while (!completed) {
    Cycle next = next_ckpt;
    if (preempt_pending && (next == 0 || a.resume_at < next)) next = a.resume_at;
    s = t.open("Machine::run_to");
    completed = !machine->run_to(next);
    t.close(s);
    if (completed) break;
    bool checkpointed_here = false;
    if (next_ckpt > 0 && next == next_ckpt) {
      checkpoint(*machine, next);
      next_ckpt += a.checkpoint_every;
      checkpointed_here = true;
    }
    if (preempt_pending && next == a.resume_at) {
      // The preempted worker checkpoints and is killed; its successor
      // reads the checkpoint, re-executes the recipe to its cycle and
      // byte-verifies the rebuilt machine before going on.
      if (!checkpointed_here) checkpoint(*machine, next);
      preempt_pending = false;
      workload.reset();
      machine.reset();
      const int resume = t.open("snapshot::resume");
      emx::snapshot::SnapshotFile file;
      s = t.open("SnapshotFile::read_file");
      err = file.read_file(ckpt_path);
      t.close(s);
      if (!err.empty()) usage(err);
      digest = std::make_unique<emx::trace::DigestSink>();
      s = t.open("Machine::Machine");
      machine = std::make_unique<emx::Machine>(m.config, digest.get());
      t.close(s);
      s = t.open("workloads::build");
      workload = emx::workloads::build(*machine, m.app, params_for(m), err);
      t.close(s);
      s = t.open("Machine::run_to");
      machine->run_to(next);
      t.close(s);
      s = t.open("snapshot::verify");
      const std::string divergent = emx::snapshot::verify(*machine, file);
      t.close(s);
      t.close(resume);
      if (!divergent.empty()) {
        std::fprintf(stderr, "emx_perfbench: resume diverged: %s\n", divergent.c_str());
        o.exit_code = 5;
      }
    }
  }
  s = t.open("Machine::report");
  emx::MachineReport report = machine->report();
  workload->contribute(report);
  t.close(s);
  s = t.open("Workload::verify");
  o.verified = workload->verify();
  t.close(s);
  o.cycles = machine->end_cycle();
  o.trace_events = digest->count();
  o.trace_crc = digest->crc();
  counts = counts_json(report, o.trace_events, checkpoints, bytes, build_rss);
  s = t.open("teardown");
  workload.reset();
  machine.reset();
  t.close(s);
  t.close(root);
  o.wall_s = since(t0);
  if (o.exit_code == 0 && !o.verified) o.exit_code = 1;

  // The same recipe with no trace sink: only the digest differs.
  {
    emx::Machine bare(m.config, nullptr);
    auto wl = emx::workloads::build(bare, m.app, params_for(m), err);
    const auto r0 = Clock::now();
    bare.run_to(0);
    nosink_run_s = since(r0);
    if (bare.end_cycle() != o.cycles) {
      std::fprintf(stderr, "emx_perfbench: sink-free run ended at %llu, not %llu\n",
                   static_cast<unsigned long long>(bare.end_cycle()),
                   static_cast<unsigned long long>(o.cycles));
      o.exit_code = 5;
    }
  }
  return o;
}

int mode_trace(const Args& a) {
  const RunManifest m = manifest_for(a);
  // Checkpointing never changes a simulated cycle, but it costs host
  // time, so the reference pays it too.
  const Outcome reference = run_untraced(m, a.checkpoint_every, a.dir);
  Tracer t;
  std::string iters = "[", nosink = "[", counts;
  const auto t0 = Clock::now();
  for (int i = 0; i == 0 || since(t0) < a.seconds; ++i) {
    double nosink_s = 0;
    const Outcome o = traced_iteration(a, m, t, counts, nosink_s);
    iters += i ? ",\n" : "\n";
    iters += o.json();
    nosink += i ? "," : "";
    nosink += num(nosink_s);
    t.next_iter();
  }
  std::printf("{\"reference\":%s,\n\"iterations\":%s],\n\"nosink_run_s\":%s],\n"
              "\"counts\":%s,\n\"peak_rss_mb\":%s,\n\"spans\":%s}\n",
              reference.json().c_str(), iters.c_str(), nosink.c_str(),
              counts.c_str(), num(status_mb("VmHWM")).c_str(), t.json().c_str());
  return 0;
}

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',', pos);
    out.push_back(csv.substr(pos, comma == std::string::npos ? comma : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

template <typename T>
std::vector<T> split_uint(const std::string& csv) {
  std::vector<T> out;
  for (const std::string& item : split(csv))
    out.push_back(static_cast<T>(std::strtoull(item.c_str(), nullptr, 10)));
  return out;
}

int mode_expand(const Args& a) {
  emx::jobs::SweepSpec spec;
  spec.apps = split(a.apps);
  spec.procs = split_uint<std::uint32_t>(a.procs_list);
  spec.threads = split_uint<std::uint32_t>(a.threads_list);
  spec.seeds = split_uint<std::uint64_t>(a.seeds);
  std::string times = "[";
  std::size_t cells = 0;
  for (int i = 0; i < a.reps; ++i) {
    std::vector<emx::jobs::JobSpec> jobs;
    std::string err;
    const auto t0 = Clock::now();
    const bool ok = spec.expand(jobs, err);
    const double s = since(t0);
    if (!ok) usage("expand: " + err);
    cells = jobs.size();
    times += i ? "," : "";
    times += num(s);
  }
  std::printf("{\"expand_s\":%s],\"cells\":%zu}\n", times.c_str(), cells);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its start value. Otherwise the first
  // freed PE memory raises it, later machines reuse heap pages that are
  // already resident, and every run after the first skips the page
  // faults a fresh emx_run process pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Args a = parse_args(argc, argv);
  if (a.mode == "expand") return mode_expand(a);
  if (a.mode == "setup") return mode_setup(a);
  return a.mode == "run" ? mode_run(a) : mode_trace(a);
}
