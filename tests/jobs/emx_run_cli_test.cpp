// emx_run refuses a bad recipe on its command line with exit 2 ("bad
// command line") and a message naming the knob, before any simulation:
// no silently ignored misspelling, no abort that a sweep would retry.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/test_dir.hpp"

namespace {

struct Outcome {
  int code = -1;
  std::string stderr_text;
};

/// Runs emx_run on a tiny sort with `flags` appended.
Outcome run(const std::string& flags) {
  const std::filesystem::path err = emx::test::test_dir("stderr");
  const std::string cmd = std::string(EMX_RUN_BIN) +
                          " --app=sort --procs=4 --size-per-proc=64 " + flags +
                          " >/dev/null 2>" + err.string();
  const int status = std::system(cmd.c_str());
  Outcome out;
  out.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::ifstream in(err);
  std::stringstream ss;
  ss << in.rdbuf();
  out.stderr_text = ss.str();
  std::filesystem::remove(err);
  return out;
}

TEST(EmxRunCli, MisspelledChoicesExitTwoNamingTheAllowedValues) {
  const struct {
    const char* flag;
    const char* allowed;
  } cases[] = {{"--network=detaild", "\"detailed\" or \"fast\""},
               {"--barrier=treee", "\"central\" or \"tree\""},
               {"--read-service=em5", "\"bypass\" or \"em4\""}};
  for (const auto& c : cases) {
    const Outcome o = run(c.flag);
    EXPECT_EQ(o.code, 2) << c.flag << ": " << o.stderr_text;
    EXPECT_NE(o.stderr_text.find(c.allowed), std::string::npos)
        << o.stderr_text;
  }
}

TEST(EmxRunCli, BadKnobsExitTwoInsteadOfAborting) {
  const struct {
    const char* flags;
    const char* names;
  } cases[] = {{"--threads=0", "threads"},
               {"--threads=-1", "threads"},
               {"--procs=0", "procs"},
               {"--poll-interval=0", "poll-interval"},
               {"--procs=6 --network=detailed", "power-of-two"},
               {"--fault-drop-rate=0.6 --fault-dup-rate=0.6", "sum"},
               {"--check=raec", "raec"},
               {"--block-reads=maybe", "block-reads"}};
  for (const auto& c : cases) {
    const Outcome o = run(c.flags);
    EXPECT_EQ(o.code, 2) << c.flags << ": " << o.stderr_text;
    EXPECT_NE(o.stderr_text.find(c.names), std::string::npos)
        << c.flags << ": " << o.stderr_text;
  }
}

TEST(EmxRunCli, GoodKnobsStillRun) {
  EXPECT_EQ(run("--network=detailed --barrier=tree --read-service=em4").code,
            0);
}

}  // namespace
