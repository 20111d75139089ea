// The crash-tolerant sweep: a front end over the job core.
//
// run_sweep() expands a SweepSpec into manifest-keyed cells, opens the
// job core (jobs/core.hpp) on the output directory and submits every
// cell — as the run object the emx_serve daemon would accept for it —
// under tenant "sweep" at priority 0, so cells start in expansion order.
// It then steps the core until every cell is terminal and writes the
// figure-ready outputs. The core journals every transition (fsync'd
// before it is acted on), so a sweep killed at any instant can be
// re-invoked over the same output directory and converge to the same
// aggregate — byte-identical, which is exactly what
// scripts/ci_sweep_chaos.sh asserts. A re-invocation resubmits every
// cell: finished cells come back from the result cache as "cached",
// half-done cells resume from their newest checkpoint.
//
// Besides the core's layout (journal.jsonl, cache/, jobs/<key>/), the
// output directory holds:
//
//   aggregate.json       figure-ready cells, deterministic bytes
//   provenance.json      how each cell got there: ok | resumed:k |
//                        cached | failed:<reason>, attempt counts
//
// The journal's first line is {"event":"sweep","digest":…,"version":2};
// a directory holding any other sweep's journal, or a journal from
// before the job core, is refused.
//
// The aggregate/provenance split is deliberate: the aggregate carries
// only run *results* (deterministic by the simulator's resume
// guarantee), so chaos can be detected by `cmp`; everything scheduling-
// dependent — retries, resumes, cache hits — lives in the provenance
// file beside it.
#pragma once

#include <string>
#include <vector>

#include "jobs/core.hpp"
#include "jobs/spec.hpp"

namespace emx::jobs {

struct SweepOptions : CoreOptions {
  SweepSpec spec;
};

/// How one grid cell ended up.
struct CellOutcome {
  std::string key;
  std::string status;  ///< "ok" | "resumed:<k>" | "cached" | "failed:<why>"
  unsigned attempts = 0;
  unsigned resumes = 0;
  std::string result_bytes;  ///< blessed result JSON line; "" when failed
};

struct SweepOutcome {
  std::vector<CellOutcome> cells;  ///< expansion order
  std::size_t ok = 0;              ///< includes resumed and cached cells
  std::size_t failed = 0;
  std::string aggregate_path;
  std::string provenance_path;
};

/// Runs the sweep to completion. Returns the sweep's exit code: 0 every
/// cell ok, 1 some cells failed (aggregate still written, with per-cell
/// provenance), 2 setup refused (bad spec, a cell the run-object
/// vocabulary cannot express, unwritable output directory, journal from
/// a different sweep, damaged journal).
int run_sweep(const SweepOptions& opts, SweepOutcome& out, std::string& err);

}  // namespace emx::jobs
