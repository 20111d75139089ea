#include "common/serializer.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/test_dir.hpp"
#include "snapshot/format.hpp"

namespace emx::snapshot {
namespace {

TEST(Serializer, RoundTripsEveryPrimitive) {
  Serializer s;
  s.u8(0xAB);
  s.u16(0xBEEF);
  s.u32(0xDEADBEEFu);
  s.u64(0x0123456789ABCDEFull);
  s.boolean(true);
  s.boolean(false);
  s.f64(-1234.5678e-12);
  s.str("fine-grain");
  s.str("");

  Deserializer d(s.data());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u16(), 0xBEEF);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(d.boolean());
  EXPECT_FALSE(d.boolean());
  EXPECT_EQ(d.f64(), -1234.5678e-12);
  EXPECT_EQ(d.str(), "fine-grain");
  EXPECT_EQ(d.str(), "");
  EXPECT_TRUE(d.exhausted());
}

TEST(Serializer, LittleEndianLayout) {
  Serializer s;
  s.u32(0x04030201u);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.data()[0], 0x01);
  EXPECT_EQ(s.data()[1], 0x02);
  EXPECT_EQ(s.data()[2], 0x03);
  EXPECT_EQ(s.data()[3], 0x04);
}

TEST(Serializer, DoubleTravelsAsExactBits) {
  Serializer s;
  s.f64(0.1);  // not exactly representable; bits must survive untouched
  Deserializer d(s.data());
  EXPECT_EQ(d.f64(), 0.1);
}

TEST(Deserializer, StickyErrorOnUnderrun) {
  Serializer s;
  s.u16(7);
  Deserializer d(s.data());
  EXPECT_EQ(d.u16(), 7);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.u32(), 0u);  // overruns: zero + sticky error
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.u8(), 0u);  // still erroring
  EXPECT_FALSE(d.exhausted());
}

TEST(Deserializer, StringLengthIsBoundsChecked) {
  Serializer s;
  s.u32(1000);  // claims 1000 bytes, provides none
  Deserializer d(s.data());
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(d.ok());
}

TEST(Crc32, KnownVectorAndChaining) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  // Incremental CRC over a split buffer equals the one-shot CRC.
  const std::uint32_t head = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, head), 0xCBF43926u);
}

TEST(Crc32, CombineEqualsTheCrcOfTheConcatenation) {
  Rng rng(0xC0BB1Eu);
  std::vector<std::uint8_t> buf(3 * 4096 + 1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // Edge lengths first (empty, one byte, a page, a page plus one), then
  // random ones; every length is split at its ends and at random points.
  std::vector<std::size_t> lengths = {0, 1, 4096, 4097};
  for (int i = 0; i < 40; ++i) lengths.push_back(rng.bounded(buf.size() + 1));
  for (const std::size_t len : lengths) {
    const std::uint32_t whole = crc32(buf.data(), len);
    std::vector<std::size_t> splits = {0, len};
    for (int i = 0; i < 4; ++i) splits.push_back(rng.bounded(len + 1));
    for (const std::size_t at : splits) {
      const std::uint32_t a = crc32(buf.data(), at);
      const std::uint32_t b = crc32(buf.data() + at, len - at);
      EXPECT_EQ(ser::crc32_combine(a, b, len - at), whole)
          << "len " << len << " split at " << at;
      EXPECT_EQ(ser::crc32_combine_op(a, b, ser::crc32_combine_gen(len - at)),
                whole)
          << "len " << len << " split at " << at;
    }
  }
}

// Bit-at-a-time CRC-32: the definition, with no tables and no lanes.
std::uint32_t bitwise_crc32(const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, LanesEqualTheBitwiseDefinition) {
  Rng rng(0x1A9E5u);
  std::vector<std::uint8_t> buf(4 * ser::kCrcLaneMin + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  // Lengths around the lane threshold and around four times it (where
  // each lane is one threshold long), short ones and a long one.
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 25, 4 * ser::kCrcLaneMin};
  for (std::size_t d = 0; d <= 40; ++d) {
    lengths.push_back(ser::kCrcLaneMin - 20 + d);
    lengths.push_back(4 * ser::kCrcLaneMin - 20 + d);
  }
  for (const std::size_t len : lengths) {
    // Every alignment of the start pointer, and seeds other than zero.
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, 0x1234ABCDu}) {
        ASSERT_LE(offset + len, buf.size());
        const std::uint8_t* p = buf.data() + offset;
        ASSERT_EQ(crc32(p, len, seed), bitwise_crc32(p, len, seed))
            << "len " << len << " offset " << offset << " seed " << seed;
      }
    }
  }
}

TEST(SnapshotFormat, EncodeDecodeRoundTrip) {
  SnapshotFile file;
  file.kind = FileKind::kCheckpoint;
  Serializer a, b;
  a.u64(42);
  b.str("hello");
  file.add("alpha", a);
  file.add("beta", b);

  const auto bytes = file.encode();
  SnapshotFile decoded;
  ASSERT_EQ(decoded.decode(bytes.data(), bytes.size()), "");
  EXPECT_EQ(decoded.kind, FileKind::kCheckpoint);
  EXPECT_EQ(decoded.version, kFormatVersion);
  ASSERT_EQ(decoded.sections.size(), 2u);
  ASSERT_NE(decoded.find("alpha"), nullptr);
  EXPECT_EQ(decoded.find("alpha")->payload, a.data());
  ASSERT_NE(decoded.find("beta"), nullptr);
  EXPECT_EQ(decoded.find("beta")->payload, b.data());
  EXPECT_EQ(decoded.find("gamma"), nullptr);
}

TEST(SnapshotFormat, DetectsCorruption) {
  SnapshotFile file;
  Serializer a;
  a.u64(0x1122334455667788ull);
  file.add("alpha", a);
  auto bytes = file.encode();

  // Flip one payload byte: the whole-file CRC catches it first.
  auto corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  SnapshotFile decoded;
  EXPECT_NE(decoded.decode(corrupt.data(), corrupt.size()), "");

  // Truncation is also an error, not a crash.
  SnapshotFile truncated;
  EXPECT_NE(truncated.decode(bytes.data(), bytes.size() - 3), "");

  // Bad magic is reported as such.
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  SnapshotFile wrong;
  const std::string err = wrong.decode(bad_magic.data(), bad_magic.size());
  EXPECT_NE(err, "");
}

TEST(SnapshotFormat, WriteReadFile) {
  const std::string path = emx::test::test_dir("emxsnap").string();
  SnapshotFile file;
  file.kind = FileKind::kRecording;
  Serializer a;
  a.str("payload");
  file.add("only", a);
  ASSERT_EQ(file.write_file(path), "");

  SnapshotFile back;
  ASSERT_EQ(back.read_file(path), "");
  EXPECT_EQ(back.kind, FileKind::kRecording);
  ASSERT_NE(back.find("only"), nullptr);
  EXPECT_EQ(back.find("only")->payload, a.data());
  std::remove(path.c_str());
}

TEST(SnapshotFormat, MissingFileIsAnError) {
  SnapshotFile file;
  EXPECT_NE(file.read_file("/nonexistent/emx/snapshot.emxsnap"), "");
}

}  // namespace
}  // namespace emx::snapshot
