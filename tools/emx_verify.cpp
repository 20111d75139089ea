// emx_verify — standalone static verifier for EMC-Y thread programs.
//
//   $ emx_verify examples/isa/remote_read.emx
//   $ emx_verify --apps                 # every registered workload
//   $ emx_verify --apps=sort,bfs prog.emx
//
// Checks `.emx` assembler sources and/or the ISA programs registered by
// workload builds against the emx::verify CFG/dataflow checks
// (use-before-def, frame balance, barrier consistency, structural
// lints). Assembler *syntax* errors abort with the assembler's own
// file/line diagnostic; this tool's exit codes cover the semantic
// checks:
//
//   0  everything verified clean
//   2  bad usage / unreadable file / unknown app
//   6  findings (any severity)
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "isa/assembler.hpp"
#include "verify/verifier.hpp"
#include "workloads/registry.hpp"

using namespace emx;

namespace {

int usage(int code) {
  std::fprintf(
      stderr,
      "usage: emx_verify [--apps | --apps=name,...] [file.emx ...]\n"
      "\n"
      "Statically verifies EMC-Y programs: basic-block CFG construction\n"
      "plus use-before-def, frame-region balance, barrier-count\n"
      "consistency and structural lints. With --apps, builds the named\n"
      "workloads (default: every registered app: %s)\n"
      "and verifies each ISA program their builds register.\n"
      "\n"
      "exit codes: 0 clean, 2 bad usage/unreadable input, 6 findings\n",
      workloads::Registry::instance().name_list(", ").c_str());
  return code;
}

/// Verifies one program; prints its findings (or a clean line) and
/// accumulates totals.
void report(const verify::Report& r, std::size_t& findings,
            std::size_t& targets) {
  ++targets;
  if (r.clean()) {
    std::printf("%s: clean\n", r.name.c_str());
  } else {
    findings += r.findings.size();
    std::fputs(r.summary_text().c_str(), stdout);
  }
}

bool verify_file(const std::string& path, std::size_t& findings,
                 std::size_t& targets) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "emx_verify: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const isa::Program program = isa::assemble(text.str());
  report(verify::verify_program(program, path), findings, targets);
  return true;
}

bool verify_app(const std::string& name, std::size_t& findings,
                std::size_t& targets) {
  const workloads::Spec* spec = workloads::Registry::instance().find(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "emx_verify: %s\n",
                 workloads::unknown_app_message(name).c_str());
    return false;
  }
  // A small machine at the workload's registered defaults: building the
  // app registers every ISA program it would run; no cycle is simulated.
  MachineConfig cfg;
  cfg.proc_count = 8;
  Machine machine(cfg);
  workloads::Params params;
  params.size_per_proc = spec->default_size_per_proc;
  params.threads = spec->default_threads;
  std::string error;
  const auto workload = workloads::build(machine, name, params, error);
  if (workload == nullptr) {
    std::fprintf(stderr, "emx_verify: %s\n", error.c_str());
    return false;
  }
  const auto& programs = machine.isa_programs();
  if (programs.empty()) {
    std::printf("app %s: no ISA programs (coroutine-native workload)\n",
                name.c_str());
    ++targets;
    return true;
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    report(verify::verify_program(*programs[i],
                                  "app " + name + " program #" +
                                      std::to_string(i)),
           findings, targets);
  }
  return true;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > pos) out.push_back(csv.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> apps;
  bool all_apps = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--apps") {
      all_apps = true;
    } else if (arg.rfind("--apps=", 0) == 0) {
      for (auto& name : split_csv(arg.substr(7))) apps.push_back(name);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "emx_verify: unknown flag %s\n", arg.c_str());
      return usage(2);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && apps.empty() && !all_apps) return usage(2);
  if (all_apps)
    for (const auto& spec : workloads::Registry::instance().specs())
      apps.push_back(spec.name);

  std::size_t findings = 0, targets = 0;
  for (const auto& file : files)
    if (!verify_file(file, findings, targets)) return 2;
  for (const auto& app : apps)
    if (!verify_app(app, findings, targets)) return 2;

  if (findings > 0) {
    std::printf("emx_verify: %zu finding(s) across %zu target(s)\n", findings,
                targets);
    return 6;
  }
  std::printf("emx_verify: %zu target(s) clean\n", targets);
  return 0;
}
