// The run-recipe vocabulary: every RunManifest field that a command
// line, a sweep spec or a daemon run object can set, named, documented
// and parsed in one table.
//
// emx_run defines, applies and resume-merges its flags by walking the
// table. The job engine walks it to render a manifest as worker flags
// and as a run object, and to parse sweep-spec "base" and daemon "run"
// objects. A knob's default is what a default-built RunManifest holds,
// so no default is written twice, and problem() is the one list of
// conditions a recipe must meet before anything runs it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "snapshot/manifest.hpp"

namespace emx {
class CliFlags;
}

namespace emx::snapshot {

/// emx_run's flag for PE outage windows. Its value is a list of windows,
/// which neither worker flags nor the JSON vocabulary carry, so it is
/// not a table knob; its name is kept here with the others.
inline constexpr const char* kFaultOutageFlag = "fault-outage";

struct Knob {
  /// The manifest field a knob names. Its type is the knob's kind: a
  /// non-empty string, an unsigned count, a rate, a switch, a two-way
  /// choice or a checker list.
  using Field = std::variant<std::string*, std::uint32_t*, std::uint64_t*,
                             double*, bool*, NetworkModel*, ReadServiceMode*,
                             BarrierTopology*, analysis::CheckConfig*>;

  enum class Role {
    kCoordinate,  ///< a grid axis: a run-object key but no "base" key
    kPinned,      ///< a "base" key that workers are always passed
    kKnob,        ///< a "base" key passed when it is off its default
  };

  const char* name;  ///< the emx_run flag and sweep-spec "base" key
  Role role;
  const char* help;  ///< the emx_run --help line
  Field (*field)(RunManifest& m);
  std::uint64_t min = 0;  ///< counts: the smallest value a recipe may hold
  std::array<const char*, 2> choices{};  ///< two-way choices, in enum order
  const char* run_key = nullptr;  ///< the run-object key, if not `name`

  const char* key() const { return run_key != nullptr ? run_key : name; }
  bool is_choice() const { return choices[0] != nullptr; }
  /// True for the knobs that shape the fault plan.
  bool fault_plan() const;
  /// True when a recipe must name this knob to rebuild `m` from a
  /// default-built manifest: coordinates and pinned knobs always, the
  /// rest when `m` holds something else than the default.
  bool expressed(const RunManifest& m) const;

  /// The value in `m` as flag text ("detailed", "0.01", "true", "race").
  std::string text(const RunManifest& m) const;
  /// The value in `m` as a run object carries it.
  json::Value json(const RunManifest& m) const;
  /// Sets the field from flag text. Returns "" or why the text is refused.
  std::string set(RunManifest& m, const std::string& text) const;
  /// Sets the field from JSON, which must have the knob's own type.
  /// Returns "" or why the value is refused.
  std::string set(RunManifest& m, const json::Value& v) const;
  void copy(const RunManifest& from, RunManifest& onto) const;
};

/// Every knob, in worker-flag order.
const std::vector<Knob>& knobs();

/// The knob whose run-object key is `key`, or nullptr.
const Knob* find_knob(const std::string& key);

/// "app, procs, ..." (or without the coordinates): the keys an
/// "unknown knob" error lists.
std::string knob_names(bool coordinates);

/// A default-built RunManifest with the workload defaults emx_run's
/// flags have (8 jacobi sweeps, seed 1). Sweep bases and daemon run
/// objects start from it, so a cell keys the same as the emx_run
/// invocation that names the same knobs.
RunManifest default_recipe();

/// "" when `m` can run; otherwise the first condition it breaks: a count
/// below its knob's minimum, then MachineConfig::problem() (network vs
/// P, poll interval, outage PEs, fault rates, ...).
std::string problem(const RunManifest& m);

/// Defines a flag for each knob `pick` accepts (every knob when null),
/// with its text in `defaults` as the default.
void define_flags(CliFlags& flags, const RunManifest& defaults,
                  bool (*pick)(const Knob&) = nullptr);

/// Sets those knobs of `m` from the parsed flags: all of them, or with
/// `only_explicit` only the flags given on the command line (the
/// --resume/--replay merge). Returns "" or "--name=value: why".
std::string apply_flags(const CliFlags& flags, RunManifest& m,
                        bool only_explicit,
                        bool (*pick)(const Knob&) = nullptr);

}  // namespace emx::snapshot
