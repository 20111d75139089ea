#include "core/experiment.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace emx {

std::string size_label(std::uint64_t n) {
  char buf[32];
  if (n >= (1ull << 20) && n % (1ull << 20) == 0) {
    std::snprintf(buf, sizeof buf, "%lluM",
                  static_cast<unsigned long long>(n >> 20));
  } else if (n >= 1024 && n % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%lluK",
                  static_cast<unsigned long long>(n >> 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(n));
  }
  return buf;
}

std::uint64_t parse_size_label(const std::string& label) {
  EMX_CHECK(!label.empty(), "empty size label");
  char* end = nullptr;
  const unsigned long long base = std::strtoull(label.c_str(), &end, 10);
  std::uint64_t mult = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k':
      case 'K':
        mult = 1ull << 10;
        break;
      case 'm':
      case 'M':
        mult = 1ull << 20;
        break;
      default:
        EMX_CHECK(false, "bad size suffix in: " + label);
    }
  }
  return base * mult;
}

}  // namespace emx
