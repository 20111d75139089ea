#include "jobs/spec.hpp"

#include <cstdio>
#include <set>

#include "common/fsio.hpp"
#include "common/json.hpp"
#include "common/serializer.hpp"
#include "snapshot/knobs.hpp"
#include "workloads/registry.hpp"

namespace emx::jobs {

namespace {

using snapshot::Knob;

std::uint32_t manifest_crc(const snapshot::RunManifest& m) {
  ser::Serializer s;
  m.save(s);
  return s.crc();
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

/// Sets the knob keyed `key` of `m` from JSON. `where` ("base" or "run")
/// names the object in errors; only a run object may set coordinates.
bool set_knob(const std::string& where, const std::string& key,
              const json::Value& v, snapshot::RunManifest& m,
              std::string& err) {
  const bool coordinates = where == "run";
  const Knob* k = snapshot::find_knob(key);
  if (k == nullptr || (!coordinates && k->role == Knob::Role::kCoordinate)) {
    err = "unknown " + where + " knob '" + key + "' (" + where +
          " knobs: " + snapshot::knob_names(coordinates) + ")";
    return false;
  }
  const std::string why = k->set(m, v);
  if (!why.empty()) err = where + "." + key + " " + why;
  return why.empty();
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
  spec.base = snapshot::default_recipe();
  for (const auto& [key, v] : run.members())
    if (!set_knob("run", key, v, spec.base, err)) return false;
  const snapshot::RunManifest& m = spec.base;
  if (m.app.empty()) {
    err = "run.app is required";
    return false;
  }
  spec.apps = {m.app};
  spec.procs = {m.config.proc_count};
  spec.seeds = {m.seed};
  // A set size or thread count is >= 1, so 0 means "not given": the
  // app's registry default.
  if (m.threads != 0) spec.threads = {m.threads};
  if (m.size_per_proc != 0) spec.sizes_per_proc = {m.size_per_proc};

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
  std::vector<std::string> out;
  for (const Knob& k : snapshot::knobs())
    if (k.expressed(m))
      out.push_back("--" + std::string(k.name) + "=" + k.text(m));
  return out;
}

json::Value run_object(const snapshot::RunManifest& m) {
  json::Value run = json::Value::object();
  for (const Knob& k : snapshot::knobs())
    if (k.expressed(m)) run.set(k.key(), k.json(m));
  return run;
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
  spec.base = snapshot::default_recipe();
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
        if (!set_knob("base", knob, kv, spec.base, err)) return false;
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
    for (const Knob& k : snapshot::knobs()) k.copy(defaults, scrubbed);
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
            JobSpec job;
            job.manifest = base;
            job.manifest.app = app;
            job.manifest.config.proc_count = p;
            job.manifest.size_per_proc = n;
            job.manifest.threads = h;
            job.manifest.seed = s;
            job.key = job_key(job.manifest);
            const std::string bad = snapshot::problem(job.manifest);
            if (!bad.empty()) {
              err = "cell " + job.key + ": " + bad;
              return false;
            }
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
