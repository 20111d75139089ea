#include "proc/memory.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/serializer.hpp"

namespace emx::proc {
namespace {

TEST(Memory, ReadsBackWrites) {
  Memory mem(1024);
  mem.write(0, 0xDEADBEEF);
  mem.write(1023, 42);
  EXPECT_EQ(mem.read(0), 0xDEADBEEFu);
  EXPECT_EQ(mem.read(1023), 42u);
  EXPECT_EQ(mem.read(512), 0u);  // zero-initialised
}

TEST(Memory, FloatRoundTripsThroughBits) {
  Memory mem(16);
  mem.write_f32(3, -1.5f);
  EXPECT_EQ(mem.read_f32(3), -1.5f);
  mem.write_f32(4, 3.14159f);
  EXPECT_EQ(mem.read_f32(4), 3.14159f);
  // Bit pattern is the IEEE-754 encoding, inspectable as a word.
  mem.write_f32(5, 1.0f);
  EXPECT_EQ(mem.read(5), 0x3F800000u);
}

TEST(Memory, FillBlock) {
  Memory mem(64);
  const Word data[4] = {1, 2, 3, 4};
  mem.fill(10, data, 4);
  for (Word i = 0; i < 4; ++i) EXPECT_EQ(mem.read(10 + i), i + 1);
}

TEST(Memory, OutOfRangeAccessPanics) {
  Memory mem(8);
  EXPECT_DEATH((void)mem.read(8), "out of range");
  EXPECT_DEATH(mem.write(100, 1), "out of range");
  const Word data[2] = {1, 2};
  EXPECT_DEATH(mem.fill(7, data, 2), "out of range");
}

/// The digest save() writes: size, then the flat CRC-32 of every word.
std::vector<std::uint8_t> reference_save(const Memory& mem) {
  std::vector<Word> flat(mem.size());
  for (std::size_t a = 0; a < flat.size(); ++a)
    flat[a] = mem.read(static_cast<LocalAddr>(a));
  ser::Serializer s;
  s.u64(flat.size());
  s.u32(ser::crc32(flat.data(), flat.size() * sizeof(Word)));
  return s.data();
}

std::vector<std::uint8_t> save_bytes(const Memory& mem) {
  ser::Serializer s;
  mem.save(s);
  return s.data();
}

TEST(Memory, UntouchedMemoryDigestsAsZeroes) {
  // Sizes around the page: one partial page, exactly one, one plus a
  // word, and a few pages with a partial tail.
  for (std::size_t words : {std::size_t{8}, std::size_t{1024},
                            std::size_t{1025}, std::size_t{3 * 1024 + 17}}) {
    const Memory mem(words);
    EXPECT_EQ(save_bytes(mem), reference_save(mem)) << words << " words";
  }
}

TEST(Memory, RandomWritesAndFillsStraddlingPagesMatchAFlatModel) {
  constexpr std::size_t kWords = 5 * Memory::kPageWords + 300;  // partial tail
  Memory mem(kWords);
  std::vector<Word> model(kWords, 0);
  Rng rng(0x5EEDu);
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 25; ++op) {
      if (rng.bounded(3) == 0) {
        // A block that often crosses one or more page boundaries.
        const std::size_t count = 1 + rng.bounded(3 * Memory::kPageWords);
        const std::size_t base = rng.bounded(kWords - count + 1);
        std::vector<Word> data(count);
        for (Word& w : data) w = static_cast<Word>(rng.next_u64());
        mem.fill(static_cast<LocalAddr>(base), data.data(), count);
        std::copy(data.begin(), data.end(), model.begin() + base);
      } else {
        const std::size_t addr = rng.bounded(kWords);
        const Word value = static_cast<Word>(rng.next_u64());
        mem.write(static_cast<LocalAddr>(addr), value);
        model[addr] = value;
      }
    }
    for (std::size_t a = 0; a < kWords; ++a)
      ASSERT_EQ(mem.read(static_cast<LocalAddr>(a)), model[a]) << "word " << a;
    ASSERT_EQ(save_bytes(mem), reference_save(mem)) << "round " << round;
  }
}

TEST(Memory, SizeThatIsNotAPageMultiple) {
  Memory mem(2 * Memory::kPageWords + 5);
  const LocalAddr last = static_cast<LocalAddr>(mem.size() - 1);
  mem.write(last, 7);
  mem.write(Memory::kPageWords - 1, 8);
  const Word data[3] = {1, 2, 3};
  mem.fill(last - 2, data, 3);
  EXPECT_EQ(mem.read(last), 3u);
  EXPECT_EQ(mem.read(Memory::kPageWords - 1), 8u);
  EXPECT_EQ(save_bytes(mem), reference_save(mem));
  EXPECT_DEATH(mem.fill(last, data, 2), "out of range");
}

TEST(Memory, SavingTwiceWithoutAWriteIsStable) {
  Memory mem(4 * Memory::kPageWords);
  mem.write(3, 1);
  mem.write(2 * Memory::kPageWords, 2);
  const auto first = save_bytes(mem);
  EXPECT_EQ(save_bytes(mem), first);
  EXPECT_EQ(first, reference_save(mem));
}

TEST(Memory, WritingBackTheOldValueRestoresTheDigest) {
  Memory mem(3 * Memory::kPageWords);
  mem.write(100, 0xABCD);
  const auto before = save_bytes(mem);
  // Into an allocated page and into a page that still reads as zero.
  for (LocalAddr addr : {LocalAddr{100}, LocalAddr{2 * Memory::kPageWords + 9}}) {
    const Word old = mem.read(addr);
    mem.write(addr, old + 1);
    EXPECT_NE(save_bytes(mem), before);
    mem.write(addr, old);
    EXPECT_EQ(save_bytes(mem), before);
  }
}

}  // namespace
}  // namespace emx::proc
