#include "common/serializer.hpp"

#include <array>
#include <bit>
#include <cstdio>

namespace emx::ser {
namespace {

// Slice-by-8 CRC-32: eight derived lookup tables let the loop fold eight
// input bytes per iteration instead of one. Table 0 is the classic
// reflected table for polynomial 0xEDB88320; table k advances table k-1
// by one zero byte, so the combined XOR over all eight equals eight
// single-byte steps. Values are bit-identical to the bytewise algorithm
// for every input — the digest paths depend on that.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (std::size_t k = 1; k < 8; ++k)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = kCrcTables;
    while (size >= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      size -= 8;
    }
  }
  while (size-- != 0) c = kCrcTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace emx::ser
