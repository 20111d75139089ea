#include "common/serializer.hpp"

#include <array>
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

// One slice-by-8 step: folds the eight bytes at p into the raw
// (pre-inverted) CRC register c.
inline std::uint32_t crc_step8(std::uint32_t c, const std::uint8_t* p) {
  const auto& t = kCrcTables;
  // Little-endian loads spelled bytewise: one 32-bit load each on a
  // little-endian host, and still correct on a big-endian one.
  const std::uint32_t lo = c ^ (p[0] | p[1] << 8 | p[2] << 16 |
                                static_cast<std::uint32_t>(p[3]) << 24);
  const std::uint32_t hi = p[4] | p[5] << 8 | p[6] << 16 |
                           static_cast<std::uint32_t>(p[7]) << 24;
  return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
         t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
         t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (size >= kCrcLaneMin) {
    // Four lanes over four equal quarters, stepped together: each step
    // is a chain of dependent table loads, so four independent chains
    // keep the load ports busy where one would wait on itself. Lanes
    // 1-3 start from seed 0 and fold into lane 0 with the combine
    // algebra: crc(a ++ b) = combine(crc(a), crc(b), |b|).
    const std::size_t lane = (size / 4) & ~std::size_t{7};
    const std::uint8_t* q = p + lane;
    const std::uint8_t* r = q + lane;
    const std::uint8_t* s = r + lane;
    std::uint32_t c1 = 0xFFFFFFFFu;
    std::uint32_t c2 = 0xFFFFFFFFu;
    std::uint32_t c3 = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < lane; i += 8) {
      c = crc_step8(c, p + i);
      c1 = crc_step8(c1, q + i);
      c2 = crc_step8(c2, r + i);
      c3 = crc_step8(c3, s + i);
    }
    const std::uint32_t op = crc32_combine_gen(lane);
    c = crc32_combine_op(c ^ 0xFFFFFFFFu, c1 ^ 0xFFFFFFFFu, op);
    c = crc32_combine_op(c, c2 ^ 0xFFFFFFFFu, op);
    c = crc32_combine_op(c, c3 ^ 0xFFFFFFFFu, op) ^ 0xFFFFFFFFu;
    p += 4 * lane;
    size -= 4 * lane;
  }
  for (; size >= 8; p += 8, size -= 8) c = crc_step8(c, p);
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
