#include "jobs/spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/fsio.hpp"
#include "common/json.hpp"
#include "common/serializer.hpp"
#include "workloads/registry.hpp"

namespace emx::jobs {

namespace {

std::uint32_t manifest_crc(const snapshot::RunManifest& m) {
  ser::Serializer s;
  m.save(s);
  return s.crc();
}

std::string fmt_double(double v) {
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Copies every emx_run-flag-expressible field of `from` onto `onto`.
/// Shared by the unexpressible-knob check (copy defaults onto a cell,
/// expect a pure default manifest back) — keeping the field list in one
/// place so worker_flags() and the check cannot drift apart.
void copy_expressible(const snapshot::RunManifest& from,
                      snapshot::RunManifest& onto) {
  onto.app = from.app;
  onto.size_per_proc = from.size_per_proc;
  onto.threads = from.threads;
  onto.iterations = from.iterations;
  onto.seed = from.seed;
  onto.block_reads = from.block_reads;
  onto.local_phase = from.local_phase;
  onto.config.proc_count = from.config.proc_count;
  onto.config.network = from.config.network;
  onto.config.read_service = from.config.read_service;
  onto.config.barrier = from.config.barrier;
  onto.config.priority_replies = from.config.priority_replies;
  onto.config.switch_save_cycles = from.config.switch_save_cycles;
  onto.config.dma_service_cycles = from.config.dma_service_cycles;
  onto.config.dma_interval_cycles = from.config.dma_interval_cycles;
  onto.config.barrier_poll_interval = from.config.barrier_poll_interval;
  onto.config.watchdog_cycles = from.config.watchdog_cycles;
  onto.config.fault.seed = from.config.fault.seed;
  onto.config.fault.drop_rate = from.config.fault.drop_rate;
  onto.config.fault.duplicate_rate = from.config.fault.duplicate_rate;
  onto.config.fault.corrupt_rate = from.config.fault.corrupt_rate;
  onto.config.fault.jitter_max_cycles = from.config.fault.jitter_max_cycles;
  onto.config.fault.timeout_cycles = from.config.fault.timeout_cycles;
  onto.config.fault.max_retries = from.config.fault.max_retries;
  onto.config.fault.reliability = from.config.fault.reliability;
  onto.config.check = from.config.check;
}

bool read_string_list(const json::Value& v, std::vector<std::string>& out,
                      std::string& err, const char* what) {
  if (!v.is_array()) {
    err = std::string(what) + " must be an array of strings";
    return false;
  }
  out.clear();
  for (const auto& e : v.items()) {
    if (!e.is_string()) {
      err = std::string(what) + " must be an array of strings";
      return false;
    }
    out.push_back(e.as_string());
  }
  return true;
}

template <typename T>
bool read_uint_list(const json::Value& v, std::vector<T>& out,
                    std::string& err, const char* what) {
  if (!v.is_array()) {
    err = std::string(what) + " must be an array of non-negative integers";
    return false;
  }
  out.clear();
  for (const auto& e : v.items()) {
    if (!e.is_int() || e.as_int() < 0) {
      err = std::string(what) + " must be an array of non-negative integers";
      return false;
    }
    out.push_back(static_cast<T>(e.as_int()));
  }
  return true;
}

bool apply_base_knob(const std::string& key, const json::Value& v,
                     snapshot::RunManifest& base, std::string& err) {
  const auto want_string = [&](const char* a, const char* b,
                               bool& matched_first) {
    if (v.as_string() == a) {
      matched_first = true;
      return true;
    }
    if (v.as_string() == b) {
      matched_first = false;
      return true;
    }
    err = "base." + key + " must be \"" + a + "\" or \"" + b + "\"";
    return false;
  };
  const auto want_uint = [&](std::uint64_t& onto) {
    if (!v.is_int() || v.as_int() < 0) {
      err = "base." + key + " must be a non-negative integer";
      return false;
    }
    onto = static_cast<std::uint64_t>(v.as_int());
    return true;
  };
  const auto want_rate = [&](double& onto) {
    if (!v.is_number() || v.as_double() < 0 || v.as_double() > 1) {
      err = "base." + key + " must be a number in 0..1";
      return false;
    }
    onto = v.as_double();
    return true;
  };
  const auto want_bool = [&](bool& onto) {
    if (!v.is_bool()) {
      err = "base." + key + " must be true or false";
      return false;
    }
    onto = v.as_bool();
    return true;
  };

  bool first = false;
  std::uint64_t u = 0;
  if (key == "network") {
    if (!want_string("fast", "detailed", first)) return false;
    base.config.network = first ? NetworkModel::kFast : NetworkModel::kDetailed;
  } else if (key == "read-service") {
    if (!want_string("bypass", "em4", first)) return false;
    base.config.read_service =
        first ? ReadServiceMode::kBypassDma : ReadServiceMode::kExuThread;
  } else if (key == "barrier") {
    if (!want_string("central", "tree", first)) return false;
    base.config.barrier =
        first ? BarrierTopology::kCentral : BarrierTopology::kTree;
  } else if (key == "priority-replies") {
    if (!want_bool(base.config.priority_replies)) return false;
  } else if (key == "block-reads") {
    if (!want_bool(base.block_reads)) return false;
  } else if (key == "local-phase") {
    if (!want_bool(base.local_phase)) return false;
  } else if (key == "iterations") {
    if (!want_uint(u)) return false;
    base.iterations = static_cast<std::uint32_t>(u);
  } else if (key == "switch-save") {
    if (!want_uint(base.config.switch_save_cycles)) return false;
  } else if (key == "dma-service") {
    if (!want_uint(base.config.dma_service_cycles)) return false;
  } else if (key == "dma-interval") {
    if (!want_uint(base.config.dma_interval_cycles)) return false;
  } else if (key == "poll-interval") {
    if (!want_uint(base.config.barrier_poll_interval)) return false;
  } else if (key == "watchdog") {
    if (!want_uint(base.config.watchdog_cycles)) return false;
  } else if (key == "fault-drop-rate") {
    if (!want_rate(base.config.fault.drop_rate)) return false;
  } else if (key == "fault-dup-rate") {
    if (!want_rate(base.config.fault.duplicate_rate)) return false;
  } else if (key == "fault-corrupt-rate") {
    if (!want_rate(base.config.fault.corrupt_rate)) return false;
  } else if (key == "fault-jitter-max") {
    if (!want_uint(base.config.fault.jitter_max_cycles)) return false;
  } else if (key == "fault-seed") {
    if (!want_uint(base.config.fault.seed)) return false;
  } else if (key == "fault-timeout") {
    if (!want_uint(u) || u == 0) {
      if (err.empty()) err = "base.fault-timeout must be >= 1";
      return false;
    }
    base.config.fault.timeout_cycles = u;
  } else if (key == "fault-max-retries") {
    if (!want_uint(u) || u == 0) {
      if (err.empty()) err = "base.fault-max-retries must be >= 1";
      return false;
    }
    base.config.fault.max_retries = static_cast<std::uint32_t>(u);
  } else if (key == "fault-reliability") {
    if (!want_bool(base.config.fault.reliability)) return false;
  } else {
    err = "unknown base knob '" + key + "' (see docs/JOBS.md for the list)";
    return false;
  }
  return true;
}

bool run_uint(const json::Value& v, std::uint64_t& onto, std::string& err,
               const char* what) {
  if (!v.is_int() || v.as_int() < 0) {
    err = std::string(what) + " must be a non-negative integer";
    return false;
  }
  onto = static_cast<std::uint64_t>(v.as_int());
  return true;
}

}  // namespace

bool parse_run(const json::Value& run, JobSpec& out, std::string& err) {
  if (!run.is_object()) {
    err = "run must be an object";
    return false;
  }
  // Build a one-cell sweep so expansion, registry defaults, validation
  // and the manifest-CRC key all come from the one proven code path.
  SweepSpec spec;
  spec.name = "serve";
  spec.procs.clear();
  spec.seeds.clear();
  // emx_run flag parity (the same defaults emx_sweep's flag path sets),
  // so a served run keys identically to the direct invocation.
  spec.base.iterations = 8;
  spec.base.seed = 1;
  for (const auto& [key, v] : run.members()) {
    std::uint64_t u = 0;
    if (key == "app") {
      if (!v.is_string() || v.as_string().empty()) {
        err = "run.app must be a non-empty string";
        return false;
      }
      spec.apps = {v.as_string()};
    } else if (key == "procs") {
      if (!run_uint(v, u, err, "run.procs")) return false;
      spec.procs = {static_cast<std::uint32_t>(u)};
    } else if (key == "threads") {
      if (!run_uint(v, u, err, "run.threads")) return false;
      spec.threads = {static_cast<std::uint32_t>(u)};
    } else if (key == "size_per_proc") {
      if (!run_uint(v, u, err, "run.size_per_proc")) return false;
      spec.sizes_per_proc = {u};
    } else if (key == "seed") {
      if (!run_uint(v, u, err, "run.seed")) return false;
      spec.seeds = {u};
    } else {
      if (!apply_base_knob(key, v, spec.base, err)) {
        // The knob applier speaks sweep-spec ("base.x", "base knob");
        // re-anchor the message to this protocol's field name.
        if (err.rfind("base.", 0) == 0) err = "run." + err.substr(5);
        if (err.rfind("unknown base knob", 0) == 0)
          err = "unknown run knob" + err.substr(17);
        return false;
      }
    }
  }
  if (spec.apps.empty()) {
    err = "run.app is required";
    return false;
  }
  if (spec.procs.empty()) spec.procs = {16};
  if (spec.seeds.empty()) spec.seeds = {1};

  std::vector<JobSpec> cells;
  if (!spec.expand(cells, err)) return false;
  out = std::move(cells.front());
  return true;
}

std::string job_key(const snapshot::RunManifest& m) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s-p%u-n%llu-h%u-s%llu-%s", m.app.c_str(),
                m.config.proc_count,
                static_cast<unsigned long long>(m.size_per_proc), m.threads,
                static_cast<unsigned long long>(m.seed),
                ser::crc_hex(manifest_crc(m)).c_str());
  return buf;
}

std::vector<std::string> worker_flags(const snapshot::RunManifest& m) {
  const snapshot::RunManifest d;  // emx_run's defaults (flag parity tested)
  std::vector<std::string> out;
  const auto flag = [&out](const std::string& name, const std::string& v) {
    out.push_back("--" + name + "=" + v);
  };
  flag("app", m.app);
  flag("procs", std::to_string(m.config.proc_count));
  flag("size-per-proc", std::to_string(m.size_per_proc));
  flag("threads", std::to_string(m.threads));
  flag("seed", std::to_string(m.seed));
  flag("iterations", std::to_string(m.iterations));
  if (m.block_reads != d.block_reads) flag("block-reads", "true");
  if (m.local_phase != d.local_phase) flag("local-phase", "false");
  if (m.config.network != d.config.network) flag("network", "detailed");
  if (m.config.read_service != d.config.read_service)
    flag("read-service", "em4");
  if (m.config.barrier != d.config.barrier) flag("barrier", "tree");
  if (m.config.priority_replies != d.config.priority_replies)
    flag("priority-replies", "true");
  if (m.config.switch_save_cycles != d.config.switch_save_cycles)
    flag("switch-save", std::to_string(m.config.switch_save_cycles));
  if (m.config.dma_service_cycles != d.config.dma_service_cycles)
    flag("dma-service", std::to_string(m.config.dma_service_cycles));
  if (m.config.dma_interval_cycles != d.config.dma_interval_cycles)
    flag("dma-interval", std::to_string(m.config.dma_interval_cycles));
  if (m.config.barrier_poll_interval != d.config.barrier_poll_interval)
    flag("poll-interval", std::to_string(m.config.barrier_poll_interval));
  if (m.config.watchdog_cycles != d.config.watchdog_cycles)
    flag("watchdog", std::to_string(m.config.watchdog_cycles));
  const auto& f = m.config.fault;
  const auto& fd = d.config.fault;
  if (f.drop_rate != fd.drop_rate)
    flag("fault-drop-rate", fmt_double(f.drop_rate));
  if (f.duplicate_rate != fd.duplicate_rate)
    flag("fault-dup-rate", fmt_double(f.duplicate_rate));
  if (f.corrupt_rate != fd.corrupt_rate)
    flag("fault-corrupt-rate", fmt_double(f.corrupt_rate));
  if (f.jitter_max_cycles != fd.jitter_max_cycles)
    flag("fault-jitter-max", std::to_string(f.jitter_max_cycles));
  if (f.seed != fd.seed) flag("fault-seed", std::to_string(f.seed));
  if (f.timeout_cycles != fd.timeout_cycles)
    flag("fault-timeout", std::to_string(f.timeout_cycles));
  if (f.max_retries != fd.max_retries)
    flag("fault-max-retries", std::to_string(f.max_retries));
  if (f.reliability != fd.reliability) flag("fault-reliability", "false");
  const auto& c = m.config.check;
  if (c.memcheck || c.race || c.deadlock || c.lint) {
    std::string list;
    const auto add = [&list](bool on, const char* name) {
      if (!on) return;
      if (!list.empty()) list += ",";
      list += name;
    };
    add(c.memcheck, "memcheck");
    add(c.race, "race");
    add(c.deadlock, "deadlock");
    add(c.lint, "lint");
    flag("check", list);
  }
  return out;
}

bool SweepSpec::from_json(const std::string& text, SweepSpec& out,
                         std::string& err) {
  std::string parse_err;
  const json::Value root = json::Value::parse(text, parse_err);
  if (!parse_err.empty()) {
    err = "spec is not valid JSON: " + parse_err;
    return false;
  }
  if (!root.is_object()) {
    err = "spec must be a JSON object";
    return false;
  }
  SweepSpec spec;
  spec.base.iterations = 8;  // emx_run's --iterations default
  spec.base.seed = 1;
  for (const auto& [key, v] : root.members()) {
    if (key == "name") {
      if (!v.is_string() || v.as_string().empty()) {
        err = "name must be a non-empty string";
        return false;
      }
      spec.name = v.as_string();
    } else if (key == "grid") {
      if (!v.is_object()) {
        err = "grid must be an object";
        return false;
      }
      for (const auto& [axis, list] : v.members()) {
        if (axis == "apps") {
          if (!read_string_list(list, spec.apps, err, "grid.apps")) return false;
        } else if (axis == "procs") {
          if (!read_uint_list(list, spec.procs, err, "grid.procs")) return false;
        } else if (axis == "threads") {
          if (!read_uint_list(list, spec.threads, err, "grid.threads"))
            return false;
        } else if (axis == "sizes_per_proc") {
          if (!read_uint_list(list, spec.sizes_per_proc, err,
                              "grid.sizes_per_proc"))
            return false;
        } else if (axis == "seeds") {
          if (!read_uint_list(list, spec.seeds, err, "grid.seeds"))
            return false;
        } else {
          err = "unknown grid axis '" + axis +
                "' (want apps, procs, threads, sizes_per_proc, seeds)";
          return false;
        }
      }
    } else if (key == "base") {
      if (!v.is_object()) {
        err = "base must be an object";
        return false;
      }
      for (const auto& [knob, kv] : v.members())
        if (!apply_base_knob(knob, kv, spec.base, err)) return false;
    } else {
      err = "unknown spec key '" + key + "' (want name, grid, base)";
      return false;
    }
  }
  if (spec.apps.empty()) {
    err = "grid.apps must name at least one app";
    return false;
  }
  out = std::move(spec);
  return true;
}

bool SweepSpec::from_file(const std::string& path, SweepSpec& out,
                         std::string& err) {
  std::string text;
  if (!fsio::read_file(path, text)) {
    err = "cannot read spec file '" + path + "'";
    return false;
  }
  return from_json(text, out, err);
}

std::string SweepSpec::canonical_json() const {
  json::Value v = json::Value::object();
  v.set("name", json::Value::string(name));
  const auto strings = [](const std::vector<std::string>& xs) {
    json::Value a = json::Value::array();
    for (const auto& x : xs) a.push(json::Value::string(x));
    return a;
  };
  const auto ints = [](const auto& xs) {
    json::Value a = json::Value::array();
    for (const auto x : xs)
      a.push(json::Value::integer(static_cast<std::int64_t>(x)));
    return a;
  };
  v.set("apps", strings(apps));
  v.set("procs", ints(procs));
  v.set("threads", ints(threads));
  v.set("sizes_per_proc", ints(sizes_per_proc));
  v.set("seeds", ints(seeds));
  v.set("base_manifest_crc",
        json::Value::string(ser::crc_hex(manifest_crc(base))));
  return v.dump();
}

std::uint32_t SweepSpec::digest() const {
  const std::string canon = canonical_json();
  return ser::crc32(canon.data(), canon.size());
}

bool SweepSpec::expand(std::vector<JobSpec>& out, std::string& err) const {
  out.clear();
  if (apps.empty()) {
    err = "sweep grid has no apps";
    return false;
  }
  if (procs.empty() || seeds.empty()) {
    err = "sweep grid has an empty procs or seeds axis";
    return false;
  }

  // The base manifest may only use knobs a worker command line can
  // reproduce — anything else would make the journal's recipe a lie.
  {
    snapshot::RunManifest defaults, scrubbed = base;
    copy_expressible(defaults, scrubbed);
    const std::string leftover = scrubbed.diff(defaults);
    if (!leftover.empty()) {
      err = "sweep base sets knobs emx_run flags cannot express:\n" + leftover;
      return false;
    }
  }

  std::set<std::string> seen;
  for (const std::string& app : apps) {
    const workloads::Spec* spec = workloads::Registry::instance().find(app);
    if (spec == nullptr) {
      err = workloads::unknown_app_message(app);
      return false;
    }
    const std::vector<std::uint64_t> sizes =
        sizes_per_proc.empty()
            ? std::vector<std::uint64_t>{spec->default_size_per_proc}
            : sizes_per_proc;
    const std::vector<std::uint32_t> hs =
        threads.empty() ? std::vector<std::uint32_t>{spec->default_threads}
                        : threads;
    for (const std::uint32_t p : procs) {
      for (const std::uint64_t n : sizes) {
        for (const std::uint32_t h : hs) {
          for (const std::uint64_t s : seeds) {
            if (p == 0 || n == 0 || h == 0) {
              err = "grid cells need procs, sizes and threads >= 1";
              return false;
            }
            JobSpec job;
            job.manifest = base;
            job.manifest.app = app;
            job.manifest.config.proc_count = p;
            job.manifest.size_per_proc = n;
            job.manifest.threads = h;
            job.manifest.seed = s;
            job.key = job_key(job.manifest);
            if (!seen.insert(job.key).second) {
              err = "duplicate grid cell " + job.key +
                    " (repeated axis value?)";
              return false;
            }
            out.push_back(std::move(job));
          }
        }
      }
    }
  }
  return true;
}

}  // namespace emx::jobs
