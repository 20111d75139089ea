#include "analysis/check_config.hpp"

#include "common/assert.hpp"

namespace emx::analysis {

CheckConfig CheckConfig::all() {
  CheckConfig c;
  c.memcheck = c.race = c.deadlock = c.lint = true;
  return c;
}

bool CheckConfig::parse(const std::string& list, CheckConfig& out,
                        std::string& err) {
  CheckConfig c;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    const std::string name = list.substr(pos, end - pos);
    if (name == "memcheck") {
      c.memcheck = true;
    } else if (name == "race") {
      c.race = true;
    } else if (name == "deadlock") {
      c.deadlock = true;
    } else if (name == "lint") {
      c.lint = true;
    } else if (name == "all") {
      c = all();
    } else if (!name.empty() && name != "none") {
      err = "unknown checker '" + name +
            "' (expected memcheck|race|deadlock|lint|all|none)";
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  out = c;
  return true;
}

CheckConfig CheckConfig::parse(const std::string& list) {
  CheckConfig c;
  std::string err;
  EMX_CHECK(parse(list, c, err), err);
  return c;
}

std::string CheckConfig::summary() const {
  std::string s;
  const auto append = [&s](const char* name) {
    if (!s.empty()) s += ',';
    s += name;
  };
  if (memcheck) append("memcheck");
  if (race) append("race");
  if (deadlock) append("deadlock");
  if (lint) append("lint");
  return s.empty() ? "none" : s;
}

}  // namespace emx::analysis
