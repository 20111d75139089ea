// Byte-level state-visitation primitives — the bottom of the component
// architecture.
//
// Serializer appends fixed-width little-endian fields to a growable byte
// buffer; Deserializer reads them back with sticky-error bounds checking
// (a truncated or corrupt snapshot must surface as a readable error, not
// an abort — snapshots cross process and machine boundaries). Every
// multi-byte integer is stored little-endian regardless of host order so
// snapshot files are portable; doubles travel as their IEEE-754 bit
// pattern.
//
// This header lives in common/ on purpose: every simulated component —
// down to the event queue and packet structs — implements
// `save_state(ser::Serializer&) const`, so the visitor types must sit
// below sim/, network/, proc/ and runtime/. The snapshot layer re-exports
// them under its traditional emx::snapshot:: names (see the alias block
// at the end); nothing outside src/snapshot/ should include a snapshot
// header to serialize state.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace emx::ser {

/// CRC-32 (IEEE 802.3 polynomial, reflected). `seed` chains incremental
/// computations: crc32(b, crc32(a)) == crc32(a ++ b). Implemented
/// slice-by-8 — the digest paths (trace oracle, record-replay frames)
/// run it inside the simulation hot loop. Inputs of at least
/// kCrcLaneMin bytes run four interleaved lanes folded with
/// crc32_combine_op; the value is the same either way.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);
inline constexpr std::size_t kCrcLaneMin = 1024;

/// CRC-32 of a ++ b from crc32(a), crc32(b) and b's length in bytes,
/// without the bytes: zlib's GF(2) polynomial algebra (crc1 times
/// x^(8*len2) mod the CRC polynomial, xor crc2), written in-tree.
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2);

/// The x^(8*len2) operator of crc32_combine, for a length used over and
/// over: crc32_combine_op(crc1, crc2, crc32_combine_gen(len2)) equals
/// crc32_combine(crc1, crc2, len2) at the cost of one GF(2) multiply.
std::uint32_t crc32_combine_gen(std::uint64_t len2);
std::uint32_t crc32_combine_op(std::uint32_t crc1, std::uint32_t crc2,
                               std::uint32_t op);

/// `crc` as 8 lowercase hex digits: how journals, cache entries and
/// sweep provenance spell a CRC.
std::string crc_hex(std::uint32_t crc);

class Serializer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Doubles travel as raw IEEE-754 bits: byte-exact, never re-rounded.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    bytes(v.data(), v.size());
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// CRC of everything appended so far.
  std::uint32_t crc() const { return crc32(buf_.data(), buf_.size()); }
  void clear() { buf_.clear(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
};

/// Sticky-error reader: the first out-of-bounds read sets ok() false and
/// every subsequent read returns zero, so decode paths can check once at
/// the end instead of after every field.
class Deserializer {
 public:
  Deserializer(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Deserializer(const std::vector<std::uint8_t>& buf)
      : Deserializer(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > remaining()) {
      ok_ = false;
      return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }
  /// Reads `size` raw bytes into `out`; zero-fills on underrun.
  void bytes(void* out, std::size_t size) {
    if (size > remaining()) {
      ok_ = false;
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  bool ok() const { return ok_; }
  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when every byte was consumed and no read overran.
  bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  std::uint8_t take() {
    if (pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }
  template <typename T>
  T read_le() {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(take()) << (8 * i)));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace emx::ser

// Compatibility re-export: the snapshot subsystem named these types first
// and its public API (SnapshotFile, manifests, tests) still spells them
// emx::ser::Serializer. The definitions moved down to common/ so
// lower layers can visit state without depending on src/snapshot/.
namespace emx::snapshot {
using ser::crc32;          // NOLINT(misc-unused-using-decls)
using ser::Deserializer;   // NOLINT(misc-unused-using-decls)
using ser::Serializer;     // NOLINT(misc-unused-using-decls)
}  // namespace emx::snapshot
