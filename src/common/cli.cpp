#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace emx {

CliFlags& CliFlags::define(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  EMX_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, default_value, help, false};
  order_.push_back(name);
  return *this;
}

const CliFlags::Flag& CliFlags::get(const std::string& name) const {
  auto it = flags_.find(name);
  EMX_CHECK(it != flags_.end(), "unknown flag queried: " + name);
  return it->second;
}

void CliFlags::parse(int argc, const char* const* argv) {
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n%s", why.c_str(),
                 help_text(argv[0]).c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", help_text(argv[0]).c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) fail("positional arguments not supported: " + arg);
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (arg.rfind("no-", 0) == 0 && flags_.count(arg.substr(3))) {
      name = arg.substr(3);
      value = "false";
    } else if (flags_.count(arg) && (i + 1 >= argc ||
                                     std::string(argv[i + 1]).rfind("--", 0) == 0)) {
      name = arg;
      value = "true";  // bare boolean flag
    } else if (i + 1 < argc) {
      name = arg;
      value = argv[++i];
    } else {
      fail("flag needs a value: --" + arg);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) fail("unknown flag: --" + name);
    it->second.value = value;
    it->second.set_by_user = true;
  }
}

bool CliFlags::explicitly_set(const std::string& name) const {
  return get(name).set_by_user;
}

std::string CliFlags::str(const std::string& name) const { return get(name).value; }

std::int64_t CliFlags::integer(const std::string& name) const {
  const auto& v = get(name).value;
  std::int64_t r = 0;
  EMX_CHECK(to_integer(v, r), "flag --" + name + " is not an integer: " + v);
  return r;
}

double CliFlags::real(const std::string& name) const {
  const auto& v = get(name).value;
  double r = 0;
  EMX_CHECK(to_real(v, r), "flag --" + name + " is not a number: " + v);
  return r;
}

bool CliFlags::boolean(const std::string& name) const {
  const auto& v = get(name).value;
  bool r = false;
  EMX_CHECK(to_boolean(v, r), "flag --" + name + " is not a boolean: " + v);
  return r;
}

bool CliFlags::to_integer(const std::string& text, std::int64_t& out) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || text.empty()) return false;
  out = v;
  return true;
}

bool CliFlags::to_real(const std::string& text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) return false;
  out = v;
  return true;
}

bool CliFlags::to_boolean(const std::string& t, bool& out) {
  const bool on = t == "true" || t == "1" || t == "yes" || t == "on";
  if (!on && t != "false" && t != "0" && t != "no" && t != "off" && !t.empty())
    return false;
  out = on;
  return true;
}

std::vector<std::int64_t> CliFlags::int_list(const std::string& name) const {
  const auto& v = get(name).value;
  std::vector<std::int64_t> out;
  std::string cur;
  auto flush = [&] {
    if (cur.empty()) return;
    char* end = nullptr;
    const long long r = std::strtoll(cur.c_str(), &end, 0);
    EMX_CHECK(end && *end == '\0', "flag --" + name + " has a bad list element: " + cur);
    out.push_back(r);
    cur.clear();
  };
  for (char ch : v) {
    if (ch == ',') {
      flush();
    } else {
      cur += ch;
    }
  }
  flush();
  return out;
}

std::string CliFlags::help_text(const std::string& program) const {
  std::string out = "usage: " + program + " [--flag=value ...]\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    out += "  --" + name + " (default: " +
           (f.default_value.empty() ? "\"\"" : f.default_value) + ")\n      " +
           f.help + "\n";
  }
  return out;
}

}  // namespace emx
