// WorkloadRegistry — the machine-readable catalogue of applications.
//
// Every runnable application registers a Spec (name, one-line
// description, default sizes, builder, metrics component). The drivers
// derive everything from the registry instead of hardcoded string
// lists: `emx_run --app=<name>` validation and help text, --list-apps,
// RunManifest app validation on resume/replay, the sweep and wallclock
// benches, and the irregular overlap study.
//
// Registration: the built-in workloads (the four paper apps plus the
// irregular suite) are registered on first Registry::instance() use —
// a function call rather than static-initializer magic, because the
// plugins live in a static library whose unreferenced objects the
// linker is free to drop. External translation units linked into a
// binary can still self-register with a namespace-scope Registrar.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace emx {
class Machine;
}

namespace emx::workloads {

/// One registered application.
struct Spec {
  std::string name;         ///< the --app value; unique, stable
  std::string description;  ///< one line for --list-apps / docs

  /// Default problem size, used when the driver's flags are left at
  /// their defaults (and shown by --list-apps).
  std::uint64_t default_size_per_proc = 1024;
  std::uint32_t default_threads = 4;

  /// Name of the Machine component this workload's metrics contribution
  /// derives from ("sim", "network", "pe0", ...). build() resolves it
  /// through Machine::sealed_component() — the tripwire that catches a
  /// plugin naming a unit that never made it into the sealed component
  /// registry (and with it, snapshots and replay digests).
  std::string metrics_component = "sim";

  /// Constructs the application over `machine` (registers its thread
  /// entries, loads PE memories, spawns workers) and returns the built
  /// instance. Panics (EMX_CHECK) on unsatisfiable parameters.
  using Builder = std::unique_ptr<Workload> (*)(Machine& machine,
                                                const Params& params);
  Builder build = nullptr;
};

/// Ordered catalogue of every registered workload. Registration order is
/// fixed (builtins first, in a deterministic sequence), so every derived
/// list — help text, --list-apps, bench sweeps — is deterministic too.
class Registry {
 public:
  /// The process-wide registry, with all built-in workloads registered.
  static Registry& instance();

  /// Registers `spec` next in catalogue order; panics on a duplicate or
  /// empty name or a null builder.
  void add(Spec spec);

  /// The spec named `name`, or nullptr.
  const Spec* find(const std::string& name) const;

  const std::vector<Spec>& specs() const { return specs_; }

  /// "sort | fft | ... | histsort" — help text and error messages.
  std::string name_list(const char* separator = " | ") const;

 private:
  std::vector<Spec> specs_;
};

/// Namespace-scope self-registration helper for plugin translation
/// units:  static workloads::Registrar reg(my_spec);
struct Registrar {
  explicit Registrar(Spec spec);
};

/// The one readable unknown-app diagnostic, shared verbatim by the CLI
/// flag path and the resumed-manifest path (both are exit 2).
std::string unknown_app_message(const std::string& app);

/// Looks `app` up, asserts its metrics component exists in the machine's
/// sealed component registry, and builds it. Returns nullptr with
/// `error` = unknown_app_message(app) for an unknown name.
std::unique_ptr<Workload> build(Machine& machine, const std::string& app,
                                const Params& params, std::string& error);

}  // namespace emx::workloads
