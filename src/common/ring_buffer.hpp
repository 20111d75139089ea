// Bounded and unbounded FIFO queues used for the hardware packet buffers
// (IBU/OBU on-chip FIFOs are 8 packets deep; overflow spills to memory)
// and the network's in-flight packet queues.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace emx {

/// Fixed-capacity circular FIFO. Models an on-chip hardware queue: pushes
/// beyond capacity are a programming error (callers must check full()).
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity) {
    EMX_CHECK(capacity > 0, "ring buffer capacity must be positive");
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void push(const T& value) {
    EMX_DCHECK(!full(), "push to full ring buffer");
    slots_[tail_] = value;
    if (++tail_ == slots_.size()) tail_ = 0;
    ++size_;
  }

  T pop() {
    EMX_DCHECK(!empty(), "pop from empty ring buffer");
    T value = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
    return value;
  }

  const T& front() const {
    EMX_DCHECK(!empty(), "front of empty ring buffer");
    return slots_[head_];
  }

  /// Element `i` positions behind the head (0 == front()), without
  /// popping — lets snapshot code walk the queue in FIFO order.
  const T& at(std::size_t i) const {
    EMX_DCHECK(i < size_, "ring buffer index out of range");
    const std::size_t at = head_ + i;
    return slots_[at < slots_.size() ? at : at - slots_.size()];
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

/// Unbounded FIFO on a power-of-two ring that doubles when full: one
/// contiguous allocation that is reused lap after lap, and a mask, not a
/// divide, to wrap. Stands in for std::deque on the network's in-flight
/// queues, where a 72-byte element took a fresh deque node every 7
/// packets. It never shrinks: the IBU spill queues, which a P=256
/// histsort fills deep on every PE at once, keep std::deque, whose nodes
/// go back to the heap (rings there raised its peak RSS by 6 MiB).
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  const T& front() const {
    EMX_DCHECK(!empty(), "front of empty ring queue");
    return slots_[head_];
  }

  void pop_front() {
    EMX_DCHECK(!empty(), "pop from empty ring queue");
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// Element `i` positions behind the front, in FIFO order.
  const T& operator[](std::size_t i) const {
    EMX_DCHECK(i < size_, "ring queue index out of range");
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

 private:
  void grow() {
    std::vector<T> next(std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< capacity is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// On-chip FIFO with automatic spill to an unbounded "memory" backing
/// store, mirroring the EMC-Y Input Buffer Unit behaviour: if the on-chip
/// FIFO becomes full, packets are stored to the on-memory buffer and
/// restored to the on-chip FIFO as space frees up (paper §2.2).
template <typename T>
class SpillingFifo {
 public:
  explicit SpillingFifo(std::size_t on_chip_capacity)
      : on_chip_(on_chip_capacity) {}

  bool empty() const { return on_chip_.empty() && spill_.empty(); }
  std::size_t size() const { return on_chip_.size() + spill_.size(); }
  std::size_t spilled() const { return spill_.size(); }
  std::size_t peak_size() const { return peak_; }

  void push(const T& value) {
    if (!spill_.empty() || on_chip_.full()) {
      spill_.push_back(value);  // preserve global FIFO order
    } else {
      on_chip_.push(value);
    }
    peak_ = std::max(peak_, size());
  }

  T pop() {
    EMX_DCHECK(!empty(), "pop from empty spilling fifo");
    T value = on_chip_.pop();
    if (!spill_.empty()) {
      on_chip_.push(spill_.front());
      spill_.pop_front();
    }
    return value;
  }

  const T& front() const { return on_chip_.front(); }

  /// Element `i` in global FIFO order (on-chip first, then spill),
  /// without popping — for snapshot serialization.
  const T& at(std::size_t i) const {
    EMX_DCHECK(i < size(), "spilling fifo index out of range");
    if (i < on_chip_.size()) return on_chip_.at(i);
    return spill_[i - on_chip_.size()];
  }

 private:
  RingBuffer<T> on_chip_;
  std::deque<T> spill_;
  std::size_t peak_ = 0;
};

}  // namespace emx
