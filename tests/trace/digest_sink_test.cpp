// DigestSink hashes its 25-byte event records a block at a time. The
// digest must equal CRC-32 folded one record at a time, whenever it is
// read: mid-block, exactly at a block boundary and across many blocks.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/serializer.hpp"

namespace emx::trace {
namespace {

/// The record layout, written out field by field: cycle u64, proc u32,
/// thread u32, type u8, info u64, all little-endian.
std::uint32_t fold_record(std::uint32_t crc, const TraceEvent& e) {
  ser::Serializer s;
  s.u64(e.cycle);
  s.u32(e.proc);
  s.u32(e.thread);
  s.u8(static_cast<std::uint8_t>(e.type));
  s.u64(e.info);
  EXPECT_EQ(s.size(), DigestSink::kRecordBytes);
  return ser::crc32(s.data().data(), s.size(), crc);
}

TraceEvent random_event(Rng& rng) {
  TraceEvent e;
  e.cycle = rng.next_u64();
  e.proc = static_cast<ProcId>(rng.next_u64());
  e.thread = static_cast<ThreadId>(rng.next_u64());
  e.type = static_cast<EventType>(rng.bounded(22));
  e.info = rng.next_u64();
  return e;
}

std::vector<std::uint8_t> saved(const DigestSink& sink) {
  ser::Serializer s;
  sink.save(s);
  return s.data();
}

TEST(DigestSink, EqualsThePerRecordCrcWheneverItIsRead) {
  constexpr std::size_t kPerBlock = DigestSink::kBlockBytes / DigestSink::kRecordBytes;
  // Reads mid-block, one before, at and one after each of the first
  // block boundaries, and far beyond.
  const std::vector<std::size_t> reads = {
      1,                 7,                 kPerBlock - 1,
      kPerBlock,         kPerBlock + 1,     2 * kPerBlock,
      2 * kPerBlock + 3, 3 * kPerBlock - 1, 3 * kPerBlock,
      10 * kPerBlock + 17};
  // Once reading only at the end, once reading at every checkpoint
  // above: an early read must not change the final digest.
  for (const bool read_along : {false, true}) {
    Rng rng(0xD16E57u);
    VectorTraceSink forwarded;
    DigestSink sink(&forwarded);
    std::uint32_t reference = 0;
    std::size_t emitted = 0;
    for (const std::size_t at : reads) {
      for (; emitted < at; ++emitted) {
        const TraceEvent e = random_event(rng);
        sink.on_event(e);
        reference = fold_record(reference, e);
      }
      if (!read_along) continue;
      EXPECT_EQ(sink.count(), at);
      EXPECT_EQ(sink.crc(), reference) << "after " << at << " events";
      ser::Serializer want;
      want.u64(at);
      want.u32(reference);
      EXPECT_EQ(saved(sink), want.data()) << "after " << at << " events";
    }
    EXPECT_EQ(sink.count(), emitted);
    EXPECT_EQ(sink.crc(), reference);

    // Every event reached the chained sink, in order.
    ASSERT_EQ(forwarded.events().size(), emitted);
    Rng replay(0xD16E57u);
    for (const TraceEvent& got : forwarded.events()) {
      const TraceEvent want = random_event(replay);
      EXPECT_EQ(got.cycle, want.cycle);
      EXPECT_EQ(got.info, want.info);
      EXPECT_EQ(got.type, want.type);
    }
  }
}

TEST(DigestSink, EmptyDigestIsZero) {
  const DigestSink sink;
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(sink.crc(), 0u);
}

}  // namespace
}  // namespace emx::trace
