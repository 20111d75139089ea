// Paper-style problem-size labels for the figure benches and sweeps.
#pragma once

#include <cstdint>
#include <string>

namespace emx {

/// Formats a size such as 524288 as "512K", 8388608 as "8M" (the paper's
/// axis labels).
std::string size_label(std::uint64_t n);

/// Parses "512K" / "8M" / "1024" back into an element count.
std::uint64_t parse_size_label(const std::string& label);

}  // namespace emx
