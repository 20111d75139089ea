// Sweep specification: an (app × h × n × P × seed) grid expanded into
// manifest-keyed jobs.
//
// A SweepSpec is the declarative half of a sweep — the grid the
// paper's Figures 6–9 sweep over, written as JSON (or assembled from
// emx_sweep's list flags). expand() turns it into concrete JobSpecs,
// each carrying a full snapshot::RunManifest (the same recipe a
// checkpoint stores) plus a stable cell key derived from the manifest
// bytes. Two invocations of the same spec therefore produce the same
// jobs in the same order with the same keys — which is what lets the
// journal, the result cache and the aggregate all converge after any
// number of crashes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "snapshot/manifest.hpp"

namespace emx::jobs {

/// One grid cell: the run recipe and its stable identity.
struct JobSpec {
  snapshot::RunManifest manifest;
  /// "app-pP-nN-hH-sS-xxxxxxxx": readable coordinates plus the CRC of
  /// the serialized manifest, so any config difference (network model,
  /// fault plan, ...) keys — and caches — separately.
  std::string key;
};

struct SweepSpec {
  std::string name = "sweep";

  // Grid axes. Empty threads/sizes adopt each app's registry defaults.
  std::vector<std::string> apps;
  std::vector<std::uint32_t> procs{16};
  std::vector<std::uint32_t> threads;
  std::vector<std::uint64_t> sizes_per_proc;
  std::vector<std::uint64_t> seeds{1};

  /// Knobs applied to every cell (network model, barrier, read service,
  /// iterations, watchdog, ...). The grid axes above override the
  /// corresponding fields per cell.
  snapshot::RunManifest base;

  /// Parses the JSON spec format (docs/JOBS.md). Returns false with a
  /// readable `err` on malformed JSON, unknown keys, or empty axes.
  static bool from_json(const std::string& text, SweepSpec& out,
                        std::string& err);
  static bool from_file(const std::string& path, SweepSpec& out,
                        std::string& err);

  /// Canonical JSON rendering of the spec (grid axes and the non-default
  /// base knobs). digest() is its CRC: the journal header records it so
  /// a re-invoked sweep refuses to mix two different sweeps in one
  /// output directory.
  std::string canonical_json() const;
  std::uint32_t digest() const;

  /// Expands the grid in deterministic order (apps → procs → sizes →
  /// threads → seeds). Returns false with `err` naming the problem
  /// (unknown app, empty axis, duplicate cell, or a cell that
  /// snapshot::problem() refuses, so no worker is started to fail).
  bool expand(std::vector<JobSpec>& out, std::string& err) const;
};

/// The stable cell key for a manifest (see JobSpec::key).
std::string job_key(const snapshot::RunManifest& m);

/// Expands one "run" object — the cell coordinates (`app`, `procs`,
/// `threads`, `size_per_proc`, `seed`) plus any knob of the spec's
/// "base" vocabulary (snapshot/knobs.hpp) — into a fully keyed JobSpec,
/// starting from snapshot::default_recipe(). The daemon parses submits
/// with it, the sweep checks that each cell's run object reproduces the
/// cell's key, and journal replay re-derives the key it journaled.
/// Returns false with `err` phrased in "run." terms.
bool parse_run(const json::Value& run, JobSpec& out, std::string& err);

/// emx_run argv tail reproducing `m` from a fresh default manifest —
/// the flags the job core passes to a worker: every knob `m` must name
/// (Knob::expressed). expand() rejects specs that stray outside the
/// knob table.
std::vector<std::string> worker_flags(const snapshot::RunManifest& m);

/// The run object parse_run() turns back into `m`: the same knobs as
/// worker_flags(), keyed and typed as JSON.
json::Value run_object(const snapshot::RunManifest& m);

}  // namespace emx::jobs
