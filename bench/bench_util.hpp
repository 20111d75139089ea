// Shared machinery for the figure-reproduction benches: one simulated
// configuration per (app, P, n, h) point, plus uniform table output.
//
// Default sizes are scaled down from the paper's (which ran on real
// hardware at up to 8M elements); pass --full for paper-scale sizes.
// Every run verifies its application result before reporting timings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/config.hpp"
#include "core/instrumentation.hpp"
#include "snapshot/knobs.hpp"

namespace emx::bench {

/// How "communication time" is extracted from a run. The paper measured
/// wall time around code sections; two defensible readings exist:
///   kIdle         — exposed latency: cycles with no runnable thread;
///   kWallMinusWork— total minus computation minus overhead (switching
///                   lands in communication, as a section timer would
///                   see it). This variant shows the paper's Figure-6
///                   rise beyond four threads.
enum class CommMetric { kIdle, kWallMinusWork };

double comm_seconds(const MachineReport& report, CommMetric metric);

struct FigureOptions {
  std::vector<std::uint32_t> threads;
  std::vector<std::uint64_t> per_proc_sizes;  ///< n / P
  bool full = false;
  bool csv = false;
  CommMetric metric = CommMetric::kIdle;
  MachineConfig base;

  /// Total element counts for a processor-count panel.
  std::vector<std::uint64_t> sizes_for(std::uint32_t procs) const;
};

/// Defines the common flags on `flags` (threads, sizes, full, csv, ...).
void define_figure_flags(CliFlags& flags);

/// Builds options from parsed flags.
FigureOptions figure_options(const CliFlags& flags);

/// A default machine with the knob-table flags `pick` accepts applied
/// (snapshot::define_flags defined them); a refused value exits 2.
MachineConfig knob_machine(const CliFlags& flags,
                           bool (*pick)(const snapshot::Knob&));

/// Runs multithreaded bitonic sorting; panics if the result is unsorted.
MachineReport run_sort(const MachineConfig& base, std::uint64_t n,
                       std::uint32_t threads);

/// Runs the multithreaded FFT (communication iterations only, as in the
/// paper's evaluation).
MachineReport run_fft(const MachineConfig& base, std::uint64_t n,
                      std::uint32_t threads);

/// Prints a panel table (text or CSV per options).
void print_panel(const std::string& title, const Table& table, bool csv);

/// Seconds formatted like the paper's log axes ("1.23e-02").
std::string seconds_cell(double seconds);

}  // namespace emx::bench
