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

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

// a * b mod the CRC polynomial over GF(2), in the reflected bit order
// the CRC itself uses: bit 31 holds x^0.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

// kX2n[k] = x^(2^k) mod the polynomial, so x^n is a product over n's
// set bits.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}

constexpr auto kX2n = make_x2n_table();

// x^(n * 2^k) mod the polynomial.
std::uint32_t x2nmodp(std::uint64_t n, unsigned k) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k)
    if ((n & 1) != 0) p = multmodp(kX2n[k & 31], p);
  return p;
}

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

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) {
  return crc32_combine_op(crc1, crc2, crc32_combine_gen(len2));
}

std::uint32_t crc32_combine_gen(std::uint64_t len2) {
  return x2nmodp(len2, 3);  // 8 bits per byte: x^(len2 * 2^3)
}

std::uint32_t crc32_combine_op(std::uint32_t crc1, std::uint32_t crc2,
                               std::uint32_t op) {
  return multmodp(op, crc1) ^ crc2;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace emx::ser
