#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "common/rng.hpp"

namespace emx {
namespace {

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  rb.push(4);
  rb.push(5);  // wraps around
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, FullAndEmptyFlags) {
  RingBuffer<int> rb(2);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  rb.push(1);
  rb.push(2);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.size(), 2u);
}

TEST(SpillingFifo, SpillsBeyondOnChipCapacityAndPreservesOrder) {
  // Mirrors the IBU: 8-deep on-chip FIFO, overflow to memory, automatic
  // restore (paper §2.2).
  SpillingFifo<int> fifo(8);
  for (int i = 0; i < 30; ++i) fifo.push(i);
  EXPECT_EQ(fifo.size(), 30u);
  EXPECT_EQ(fifo.spilled(), 22u);
  EXPECT_EQ(fifo.peak_size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(fifo.pop(), i);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.spilled(), 0u);
}

TEST(SpillingFifo, InterleavedPushPop) {
  SpillingFifo<int> fifo(2);
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    fifo.push(next_push++);
    fifo.push(next_push++);
    EXPECT_EQ(fifo.pop(), next_pop++);
  }
  while (!fifo.empty()) EXPECT_EQ(fifo.pop(), next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpillingFifo, RestoresFromSpillAfterDrain) {
  SpillingFifo<int> fifo(2);
  for (int i = 0; i < 5; ++i) fifo.push(i);
  EXPECT_EQ(fifo.pop(), 0);
  EXPECT_EQ(fifo.pop(), 1);
  // Newly pushed items must still come after restored spill items.
  fifo.push(100);
  EXPECT_EQ(fifo.pop(), 2);
  EXPECT_EQ(fifo.pop(), 3);
  EXPECT_EQ(fifo.pop(), 4);
  EXPECT_EQ(fifo.pop(), 100);
}

TEST(RingQueue, WrapsAndGrowsInFifoOrder) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  int next_push = 0;
  int next_pop = 0;
  // Keep the head moving so later growth happens with a wrapped ring.
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_push++);
    EXPECT_EQ(q.front(), next_pop);
    q.pop_front();
    ++next_pop;
    ASSERT_EQ(q.size(), static_cast<std::size_t>(next_push - next_pop));
    for (std::size_t i = 0; i < q.size(); ++i)
      ASSERT_EQ(q[i], next_pop + static_cast<int>(i));
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_pop++);
    q.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingQueue, IterationOrderMatchesADeque) {
  // Snapshots walk the in-flight queues front to back; the ring must
  // hand them out in exactly the order std::deque did.
  RingQueue<std::uint64_t> q;
  std::deque<std::uint64_t> model;
  Rng rng(0xF1F0u);
  for (int step = 0; step < 5000; ++step) {
    if (model.empty() || rng.bounded(5) < 3) {
      const std::uint64_t v = rng.next_u64();
      q.push_back(v);
      model.push_back(v);
    } else {
      ASSERT_EQ(q.front(), model.front());
      q.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(q.size(), model.size());
    if (step % 97 == 0)
      for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(q[i], model[i]);
  }
}

TEST(SpillingFifo, AtWalksOnChipThenSpillInFifoOrder) {
  SpillingFifo<int> fifo(4);
  for (int i = 0; i < 11; ++i) fifo.push(i);
  EXPECT_EQ(fifo.pop(), 0);
  EXPECT_EQ(fifo.pop(), 1);
  for (int i = 11; i < 14; ++i) fifo.push(i);
  ASSERT_EQ(fifo.size(), 12u);
  for (std::size_t i = 0; i < fifo.size(); ++i)
    EXPECT_EQ(fifo.at(i), static_cast<int>(i) + 2);
}

}  // namespace
}  // namespace emx
