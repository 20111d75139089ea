// Per-test scratch paths. ctest runs each test in its own process and,
// under -j, many of them at once: a fixed name such as
// TempDir()/"journal_test" would be shared — and deleted — across
// concurrent tests. Every fixture that needs disk space takes it here.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace emx::test {

/// TempDir()/<suite>.<test>.<pid>[.<tag>]: unique to the running test in
/// this process. Nothing is created; callers create and remove it. `tag`
/// tells apart several paths one test needs.
inline std::filesystem::path test_dir(const std::string& tag = "") {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(::getpid());
  if (!tag.empty()) name += "." + tag;
  // Parameterized suites and tests carry '/' in their names.
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::path(::testing::TempDir()) / name;
}

}  // namespace emx::test
