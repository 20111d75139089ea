// Which always-on checkers a run arms (emx_run --check=...).
//
// With nothing enabled the analysis layer is not constructed at all: no
// shadow state is allocated, every hook site is a null-pointer test, and
// reported cycle counts are byte-identical to a build without it. The
// checkers themselves are pure observers — they never charge cycles or
// schedule events, so enabling them does not perturb timing either.
#pragma once

#include <string>

namespace emx::analysis {

struct CheckConfig {
  bool memcheck = false;  ///< shadow-memory addressability + definedness
  bool race = false;      ///< vector-clock data-race detection
  bool deadlock = false;  ///< quiescence-time wait-for-graph scan
  bool lint = false;      ///< simulator invariant checks

  bool enabled() const { return memcheck || race || deadlock || lint; }

  static CheckConfig all();

  /// Parses a comma-separated list: "memcheck,race,deadlock,lint", the
  /// shorthand "all", or "" / "none" (nothing). Returns false with `err`
  /// naming the first unknown checker.
  static bool parse(const std::string& list, CheckConfig& out,
                    std::string& err);
  /// As above for lists written in code; an unknown name panics.
  static CheckConfig parse(const std::string& list);

  /// "memcheck,race" — the enabled checkers, for banners and reports.
  std::string summary() const;
};

}  // namespace emx::analysis
