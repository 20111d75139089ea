// Figure-ready sweep outputs: aggregate.json and provenance.json.
//
// Two files, one deliberate split. aggregate.json holds only what the
// simulator determines — cell keys, ok/failed verdicts, and each
// worker's result object (cycles, shares, trace CRC). The simulator's
// resume guarantee makes every one of those byte-identical however many
// times a worker was killed and resumed, so chaos CI can assert crash
// tolerance with a plain `cmp` against an undisturbed run.
//
// provenance.json, written beside it, holds everything scheduling-
// dependent: how each cell got its result (ok | resumed:k | cached |
// failed:<reason>) and how many attempts it took. It is the honest
// record — and is exactly the part that may differ between a calm run
// and a stormy one.
#pragma once

#include <string>
#include <vector>

#include "jobs/sweep.hpp"

namespace emx::jobs {

/// Writes the deterministic aggregate (cells in expansion order; status
/// "ok" or "failed:<reason>"; each ok cell's result JSON embedded as an
/// object). Atomic publish; returns false with `err` on write failure.
bool write_aggregate(const std::string& path, const SweepSpec& spec,
                     const std::vector<CellOutcome>& cells, std::string& err);

/// Writes the per-cell provenance record beside the aggregate.
bool write_provenance(const std::string& path, const SweepSpec& spec,
                      const std::vector<CellOutcome>& cells, std::string& err);

}  // namespace emx::jobs
