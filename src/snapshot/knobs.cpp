#include "snapshot/knobs.hpp"

#include <limits>
#include <string_view>
#include <type_traits>

#include "common/cli.hpp"

namespace emx::snapshot {

namespace {

using F = Knob::Field;
using R = Knob::Role;
using M = RunManifest;

template <typename T>
constexpr bool kIsCount =
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;

template <typename P>
using Pointee = std::remove_pointer_t<P>;

/// The field of a const manifest; callers only read through it.
F at(const Knob& k, const RunManifest& m) {
  return k.field(const_cast<RunManifest&>(m));
}

/// Range-checks `v` for count field type T and the knob's minimum.
template <typename T>
std::string count_problem(const Knob& k, std::uint64_t v) {
  if (v > std::numeric_limits<T>::max())
    return "must be at most " + std::to_string(std::numeric_limits<T>::max());
  if (v < k.min) return "must be >= " + std::to_string(k.min);
  return "";
}

std::string choice_problem(const Knob& k) {
  return std::string("must be \"") + k.choices[0] + "\" or \"" +
         k.choices[1] + "\"";
}

}  // namespace

const std::vector<Knob>& knobs() {
  static const std::vector<Knob> table = {
      {"app", R::kCoordinate, "workload (emx_run --list-apps lists them)",
       [](M& m) -> F { return &m.app; }},
      {"procs", R::kCoordinate, "processor count (power of two except jacobi)",
       [](M& m) -> F { return &m.config.proc_count; }},
      {"size-per-proc", R::kCoordinate, "elements/points/cells per PE",
       [](M& m) -> F { return &m.size_per_proc; }, 1, {}, "size_per_proc"},
      {"threads", R::kCoordinate, "fine-grain threads per PE",
       [](M& m) -> F { return &m.threads; }, 1},
      {"seed", R::kCoordinate, "workload seed",
       [](M& m) -> F { return &m.seed; }},
      {"iterations", R::kPinned, "jacobi only: sweeps",
       [](M& m) -> F { return &m.iterations; }},
      {"block-reads", R::kKnob, "sort only: block-read variant",
       [](M& m) -> F { return &m.block_reads; }},
      {"local-phase", R::kKnob, "fft only: include the local iterations",
       [](M& m) -> F { return &m.local_phase; }},
      {"network", R::kKnob, "network model: fast | detailed",
       [](M& m) -> F { return &m.config.network; }, 0, {"detailed", "fast"}},
      {"read-service", R::kKnob, "remote-read service: bypass | em4",
       [](M& m) -> F { return &m.config.read_service; }, 0,
       {"bypass", "em4"}},
      {"barrier", R::kKnob, "iteration barrier: central | tree",
       [](M& m) -> F { return &m.config.barrier; }, 0, {"central", "tree"}},
      {"priority-replies", R::kKnob, "replies via the high FIFO",
       [](M& m) -> F { return &m.config.priority_replies; }},
      {"switch-save", R::kKnob, "register-save cycles per suspension",
       [](M& m) -> F { return &m.config.switch_save_cycles; }},
      {"dma-service", R::kKnob, "by-pass DMA service latency, cycles",
       [](M& m) -> F { return &m.config.dma_service_cycles; }},
      {"dma-interval", R::kKnob, "by-pass DMA occupancy per request",
       [](M& m) -> F { return &m.config.dma_interval_cycles; }},
      {"poll-interval", R::kKnob, "barrier re-check period, cycles",
       [](M& m) -> F { return &m.config.barrier_poll_interval; }},
      {"watchdog", R::kKnob,
       "stop + diagnose after N cycles without progress (0 = off); exit "
       "code 4 when it fires",
       [](M& m) -> F { return &m.config.watchdog_cycles; }},
      {"fault-drop-rate", R::kKnob, "P(drop) per tracked fabric packet",
       [](M& m) -> F { return &m.config.fault.drop_rate; }},
      {"fault-dup-rate", R::kKnob, "P(duplicate) per tracked fabric packet",
       [](M& m) -> F { return &m.config.fault.duplicate_rate; }},
      {"fault-corrupt-rate", R::kKnob,
       "P(bit corruption) per tracked fabric packet",
       [](M& m) -> F { return &m.config.fault.corrupt_rate; }},
      {"fault-jitter-max", R::kKnob, "max extra per-packet latency, cycles",
       [](M& m) -> F { return &m.config.fault.jitter_max_cycles; }},
      {"fault-seed", R::kKnob, "fault plan RNG seed",
       [](M& m) -> F { return &m.config.fault.seed; }},
      {"fault-timeout", R::kKnob, "retransmit timeout, cycles",
       [](M& m) -> F { return &m.config.fault.timeout_cycles; }},
      {"fault-max-retries", R::kKnob, "retransmits allowed per request",
       [](M& m) -> F { return &m.config.fault.max_retries; }},
      {"fault-reliability", R::kKnob,
       "seq/ACK/retransmit protocol (off = lossy faults may hang; pair "
       "with --watchdog)",
       [](M& m) -> F { return &m.config.fault.reliability; }},
      {"check", R::kKnob, "checkers: memcheck,race,deadlock,lint | all | none",
       [](M& m) -> F { return &m.config.check; }},
  };
  return table;
}

bool Knob::fault_plan() const {
  return std::string_view(name).substr(0, 6) == "fault-";
}

bool Knob::expressed(const RunManifest& m) const {
  static const RunManifest defaults;
  return role != Role::kKnob || text(m) != text(defaults);
}

std::string Knob::text(const RunManifest& m) const {
  const json::Value v = json(m);
  return v.is_string() ? v.as_string() : v.dump();
}

json::Value Knob::json(const RunManifest& m) const {
  return std::visit(
      [this](auto* p) {
        using T = Pointee<decltype(p)>;
        if constexpr (kIsCount<T>) {
          return json::Value::integer(static_cast<std::int64_t>(*p));
        } else if constexpr (std::is_same_v<T, double>) {
          return json::Value::real(*p);  // dumps the shortest round trip
        } else if constexpr (std::is_same_v<T, bool>) {
          return json::Value::boolean(*p);
        } else if constexpr (std::is_enum_v<T>) {
          const auto i = static_cast<std::size_t>(*p);
          return json::Value::string(i < choices.size() ? choices[i] : "?");
        } else if constexpr (std::is_same_v<T, analysis::CheckConfig>) {
          return json::Value::string(p->summary());
        } else {
          return json::Value::string(*p);
        }
      },
      at(*this, m));
}

std::string Knob::set(RunManifest& m, const std::string& s) const {
  return std::visit(
      [&](auto* p) -> std::string {
        using T = Pointee<decltype(p)>;
        if constexpr (std::is_same_v<T, std::string>) {
          if (s.empty()) return "must not be empty";
          *p = s;
        } else if constexpr (kIsCount<T>) {
          std::int64_t v = 0;
          if (!CliFlags::to_integer(s, v) || v < 0)
            return "must be a non-negative integer";
          const std::string why =
              count_problem<T>(*this, static_cast<std::uint64_t>(v));
          if (!why.empty()) return why;
          *p = static_cast<T>(v);
        } else if constexpr (std::is_same_v<T, double>) {
          if (!CliFlags::to_real(s, *p)) return "must be a number";
        } else if constexpr (std::is_same_v<T, bool>) {
          if (!CliFlags::to_boolean(s, *p)) return "must be true or false";
        } else if constexpr (std::is_enum_v<T>) {
          if (s != choices[0] && s != choices[1]) return choice_problem(*this);
          *p = static_cast<T>(s == choices[0] ? 0 : 1);
        } else {
          std::string err;
          if (!analysis::CheckConfig::parse(s, *p, err)) return err;
        }
        return "";
      },
      field(m));
}

std::string Knob::set(RunManifest& m, const json::Value& v) const {
  // The JSON type must be the knob's own; the value then takes the flag
  // path, so both vocabularies share one parser and one range check.
  const std::string wrong_type = std::visit(
      [&](auto* p) -> std::string {
        using T = Pointee<decltype(p)>;
        if constexpr (kIsCount<T>)
          return v.is_int() ? "" : "must be a non-negative integer";
        else if constexpr (std::is_same_v<T, double>)
          return v.is_number() ? "" : "must be a number";
        else if constexpr (std::is_same_v<T, bool>)
          return v.is_bool() ? "" : "must be true or false";
        else if constexpr (std::is_enum_v<T>)
          return v.is_string() ? "" : choice_problem(*this);
        else
          return v.is_string() ? "" : "must be a string";
      },
      field(m));
  if (!wrong_type.empty()) return wrong_type;
  return set(m, v.is_string() ? v.as_string() : v.dump());
}

void Knob::copy(const RunManifest& from, RunManifest& onto) const {
  std::visit(
      [&](auto* dst) { *dst = *std::get<decltype(dst)>(at(*this, from)); },
      field(onto));
}

const Knob* find_knob(const std::string& key) {
  for (const Knob& k : knobs())
    if (key == k.key()) return &k;
  return nullptr;
}

std::string knob_names(bool coordinates) {
  std::string out;
  for (const Knob& k : knobs()) {
    if (!coordinates && k.role == Knob::Role::kCoordinate) continue;
    out += (out.empty() ? "" : ", ") + std::string(k.key());
  }
  return out;
}

RunManifest default_recipe() {
  RunManifest m;
  m.iterations = 8;
  m.seed = 1;
  return m;
}

std::string problem(const RunManifest& m) {
  for (const Knob& k : knobs()) {
    const std::string why = std::visit(
        [&k](auto* p) -> std::string {
          using T = Pointee<decltype(p)>;
          if constexpr (kIsCount<T>) return count_problem<T>(k, *p);
          return "";
        },
        at(k, m));
    if (!why.empty()) return std::string(k.name) + " " + why;
  }
  return m.config.problem();
}

void define_flags(CliFlags& flags, const RunManifest& defaults,
                  bool (*pick)(const Knob&)) {
  for (const Knob& k : knobs())
    if (pick == nullptr || pick(k))
      flags.define(k.name, k.text(defaults), k.help);
}

std::string apply_flags(const CliFlags& flags, RunManifest& m,
                        bool only_explicit, bool (*pick)(const Knob&)) {
  for (const Knob& k : knobs()) {
    if ((pick != nullptr && !pick(k)) ||
        (only_explicit && !flags.explicitly_set(k.name)))
      continue;
    const std::string text = flags.str(k.name);
    const std::string why = k.set(m, text);
    if (!why.empty())
      return "--" + std::string(k.name) + "=" + text + ": " + why;
  }
  return "";
}

}  // namespace emx::snapshot
