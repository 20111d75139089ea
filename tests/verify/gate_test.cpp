// The Machine-side ISA program registry and the clean-pass contract:
// every program a registry workload builds verifies clean.
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "isa/interpreter.hpp"
#include "verify/verifier.hpp"
#include "workloads/registry.hpp"

namespace emx::verify {
namespace {

TEST(MachineIsaRegistry, RegisteredProgramsAreRecorded) {
  MachineConfig cfg;
  cfg.proc_count = 2;
  Machine m(cfg);
  EXPECT_TRUE(m.isa_programs().empty());
  (void)isa::register_source(m, R"(
      li   r2, 1
      halt
  )");
  (void)isa::register_source(m, R"(
      yield
      halt
  )");
  ASSERT_EQ(m.isa_programs().size(), 2u);
  EXPECT_EQ(m.isa_programs()[0]->code.size(), 2u);
  // ...and the recorded programs are exactly what the verifier sees.
  for (const auto& p : m.isa_programs()) {
    EXPECT_TRUE(verify_program(*p).clean());
  }
}

// The headline contract: every workload in the registry builds programs
// the static verifier accepts. Today all eight are coroutine-native
// (zero ISA programs — trivially clean); any future ISA-level workload
// is automatically held to the same bar by this test.
TEST(GateCleanPass, EveryRegistryWorkloadVerifiesClean) {
  for (const workloads::Spec& spec : workloads::Registry::instance().specs()) {
    MachineConfig cfg;
    cfg.proc_count = 8;
    Machine m(cfg);
    workloads::Params params;
    params.size_per_proc = spec.default_size_per_proc;
    params.threads = spec.default_threads;
    params.seed = 1;
    std::string error;
    auto workload = workloads::build(m, spec.name, params, error);
    ASSERT_NE(workload, nullptr) << spec.name << ": " << error;
    for (std::size_t i = 0; i < m.isa_programs().size(); ++i) {
      const Report r = verify_program(*m.isa_programs()[i],
                                      spec.name + " #" + std::to_string(i));
      EXPECT_TRUE(r.clean()) << r.summary_text();
    }
  }
}

}  // namespace
}  // namespace emx::verify
