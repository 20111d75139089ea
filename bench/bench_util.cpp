#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "apps/bitonic.hpp"
#include "apps/fft.hpp"
#include "common/assert.hpp"
#include "core/machine.hpp"

namespace emx::bench {

double comm_seconds(const MachineReport& report, CommMetric metric) {
  switch (metric) {
    case CommMetric::kIdle:
      return report.mean_comm_seconds();
    case CommMetric::kWallMinusWork:
      return (report.mean_comm_cycles() + report.mean_switching_cycles() +
              report.mean_read_service_cycles()) /
             report.clock_hz;
  }
  return 0.0;
}

std::vector<std::uint64_t> FigureOptions::sizes_for(std::uint32_t procs) const {
  std::vector<std::uint64_t> out;
  out.reserve(per_proc_sizes.size());
  for (auto s : per_proc_sizes) out.push_back(s * procs);
  return out;
}

namespace {

/// The figure benches expose the machine's two-way choices: network
/// model, barrier topology and read service.
bool is_choice(const snapshot::Knob& k) { return k.is_choice(); }

}  // namespace

void define_figure_flags(CliFlags& flags) {
  flags.define("threads", "1,2,3,4,8,16", "thread counts h to sweep")
      .define("sizes-per-proc", "256,1024,4096",
              "elements per processor (n/P) to sweep")
      .define("full", "false",
              "paper-scale sizes: n/P in {8K,16K,32K,64K,128K} (slow)")
      .define("csv", "false", "emit CSV instead of aligned text")
      .define("metric", "idle",
              "communication-time metric: idle | wall (total-compute-overhead)");
  snapshot::define_flags(flags, snapshot::RunManifest{}, is_choice);
}

FigureOptions figure_options(const CliFlags& flags) {
  FigureOptions opt;
  for (auto v : flags.int_list("threads"))
    opt.threads.push_back(static_cast<std::uint32_t>(v));
  opt.full = flags.boolean("full");
  if (opt.full) {
    opt.per_proc_sizes = {8192, 16384, 32768, 65536, 131072};
  } else {
    for (auto v : flags.int_list("sizes-per-proc"))
      opt.per_proc_sizes.push_back(static_cast<std::uint64_t>(v));
  }
  opt.csv = flags.boolean("csv");
  const std::string metric = flags.str("metric");
  EMX_CHECK(metric == "idle" || metric == "wall", "bad --metric value");
  opt.metric = metric == "idle" ? CommMetric::kIdle : CommMetric::kWallMinusWork;
  opt.base = knob_machine(flags, is_choice);
  return opt;
}

MachineConfig knob_machine(const CliFlags& flags,
                           bool (*pick)(const snapshot::Knob&)) {
  snapshot::RunManifest m;
  const std::string err = snapshot::apply_flags(flags, m, false, pick);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    std::exit(2);
  }
  return m.config;
}

MachineReport run_sort(const MachineConfig& base, std::uint64_t n,
                       std::uint32_t threads) {
  MachineConfig cfg = base;
  Machine machine(cfg);
  apps::BitonicSortApp app(machine, apps::BitonicParams{.n = n, .threads = threads});
  app.setup();
  machine.run();
  EMX_CHECK(app.verify(), "bitonic sorting produced a wrong result");
  return machine.report();
}

MachineReport run_fft(const MachineConfig& base, std::uint64_t n,
                      std::uint32_t threads) {
  MachineConfig cfg = base;
  Machine machine(cfg);
  apps::FftApp app(machine, apps::FftParams{.n = n, .threads = threads});
  app.setup();
  machine.run();
  return machine.report();
}

void print_panel(const std::string& title, const Table& table, bool csv) {
  std::printf("\n== %s ==\n", title.c_str());
  if (csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_text().c_str(), stdout);
  }
  std::fflush(stdout);
}

std::string seconds_cell(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", seconds);
  return buf;
}

}  // namespace emx::bench
