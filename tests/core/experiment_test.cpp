#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace emx {
namespace {

TEST(SizeLabel, PaperStyleLabels) {
  EXPECT_EQ(size_label(512 * 1024), "512K");
  EXPECT_EQ(size_label(8 * 1024 * 1024), "8M");
  EXPECT_EQ(size_label(1 << 20), "1M");
  EXPECT_EQ(size_label(1000), "1000");
  EXPECT_EQ(size_label(2048), "2K");
}

TEST(SizeLabel, ParseRoundTrip) {
  for (std::uint64_t n : {1024ull, 512ull * 1024, 8ull << 20, 1000ull}) {
    EXPECT_EQ(parse_size_label(size_label(n)), n);
  }
  EXPECT_EQ(parse_size_label("512k"), 512ull * 1024);
  EXPECT_EQ(parse_size_label("2m"), 2ull << 20);
}

}  // namespace
}  // namespace emx
