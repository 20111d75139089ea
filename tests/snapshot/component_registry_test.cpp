// Component registry contracts: the Machine's registration order IS the
// snapshot section order (pinned by the checked-in v2 golden), the
// registry refuses the mistakes that would silently corrupt that
// contract (duplicates, post-seal additions), and assert_covers() is a
// loud tripwire for a stateful unit that was built but never registered.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/component.hpp"
#include "core/machine.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"

#ifndef EMX_TEST_DATA_DIR
#error "EMX_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace emx {
namespace {

/// A minimal stateful unit for registry-level tests.
class Probe final : public Component {
 public:
  explicit Probe(const char* name) : name_(name) {}
  const char* component_name() const override { return name_; }
  void save_state(ser::Serializer& s) const override { s.u64(7); }

 private:
  const char* name_;
};

TEST(ComponentRegistry, MachineCaptureOrderMatchesGoldenSections) {
  // Rebuild the golden recipe's machine shape (docs/CHECKPOINT.md: sort,
  // 4 PEs, DigestSink attached) and require the registry to enumerate in
  // exactly the golden file's section order. A reordering here would make
  // every existing checkpoint fail verification by "divergence" that is
  // really misalignment.
  snapshot::SnapshotFile golden;
  ASSERT_EQ(golden.read_file(EMX_TEST_DATA_DIR
                             "/snapshot/golden/tiny_v3.emxsnap"),
            "");

  MachineConfig cfg;
  cfg.proc_count = 4;
  trace::DigestSink digest;
  Machine m(cfg, &digest);

  std::vector<std::string> live;
  for (const Component* c : m.components().items())
    live.push_back(c->component_name());

  std::vector<std::string> saved;
  for (const auto& sec : golden.sections)
    if (sec.name != "manifest") saved.push_back(sec.name);

  EXPECT_EQ(live, saved);
}

TEST(ComponentRegistry, SectionsComeFromRegistryInOrder) {
  MachineConfig cfg;
  cfg.proc_count = 2;
  Machine m(cfg);
  const auto sections = snapshot::component_sections(m);
  ASSERT_EQ(sections.size(), m.components().items().size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].first,
              m.components().items()[i]->component_name());
    EXPECT_FALSE(sections[i].second.data().empty())
        << sections[i].first << " serialized to zero bytes";
  }
}

TEST(ComponentRegistryDeathTest, UnregisteredUnitTripsCoverageCheck) {
  Probe a("a"), b("b"), forgotten("forgotten");
  ComponentRegistry reg;
  reg.add(&a);
  reg.add(&b);
  reg.seal();
  // Registered units (and nulls, the "feature not armed" spelling) pass.
  reg.assert_covers({&a, &b, nullptr});
  EXPECT_DEATH(reg.assert_covers({&a, &forgotten}), "never registered");
}

TEST(ComponentRegistryDeathTest, RejectsDuplicateNamesAndPostSealAdds) {
  Probe a("dup"), b("dup"), late("late");
  ComponentRegistry reg;
  reg.add(&a);
  EXPECT_DEATH(reg.add(&b), "duplicate");
  reg.seal();
  EXPECT_DEATH(reg.add(&late), "sealed");
}

TEST(ComponentRegistry, FindLocatesByName) {
  MachineConfig cfg;
  cfg.proc_count = 2;
  Machine m(cfg);
  ASSERT_NE(m.components().find("sim"), nullptr);
  ASSERT_NE(m.components().find("pe1"), nullptr);
  EXPECT_EQ(m.components().find("pe2"), nullptr);
  EXPECT_EQ(m.components().find("no-such-unit"), nullptr);
}

}  // namespace
}  // namespace emx
