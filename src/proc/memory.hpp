// Per-PE local memory: 4 MB of one-level static RAM on the EMC-Y,
// word-addressed (32-bit words). The simulator stores real data here so
// application results can be verified, not just timed.
//
// The words live in 4 KiB pages that all share one static zero page
// until their first write, so a machine costs host memory for what its
// programs touch, not for what the EMC-Y could hold. Each page caches
// its CRC and a dirty byte, and the memory keeps the CRC of all its
// words: save() re-hashes only the pages written since the previous
// save and patches that digest with each page's change, so a save costs
// what was written since the last one — nothing at all when no page was.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/serializer.hpp"

namespace emx::proc {

class Memory {
 public:
  /// Observer for every store, attributed or not (analysis runs only):
  /// fn-pointer style to keep the unprobed fast path a single null test.
  using WriteProbe = void (*)(void* ctx, LocalAddr addr, std::uint32_t words);

  static constexpr unsigned kPageShift = 10;
  static constexpr std::size_t kPageWords = std::size_t{1} << kPageShift;

  explicit Memory(std::size_t words)
      : size_(words),
        view_((words + kPageWords - 1) / kPageWords, kZeroPage),
        pages_(view_.size()) {
    for (std::size_t p = 0; p < pages_.size(); ++p)
      pages_[p].crc = page_words(p) == kPageWords
                          ? zero_page_crc()
                          : ser::crc32(kZeroPage, page_words(p) * sizeof(Word));
  }

  std::size_t size() const { return size_; }

  void set_write_probe(WriteProbe probe, void* ctx) {
    probe_ = probe;
    probe_ctx_ = ctx;
  }

  Word read(LocalAddr addr) const {
    EMX_DCHECK(addr < size_, "memory read out of range");
    return view_[addr >> kPageShift][addr & (kPageWords - 1)];
  }

  void write(LocalAddr addr, Word value) {
    EMX_DCHECK(addr < size_, "memory write out of range");
    writable(addr >> kPageShift)[addr & (kPageWords - 1)] = value;
    if (probe_ != nullptr) probe_(probe_ctx_, addr, 1);
  }

  /// Single-precision floats are stored as their bit pattern (the EMC-Y is
  /// a 32-bit machine with single-precision FP units).
  float read_f32(LocalAddr addr) const { return std::bit_cast<float>(read(addr)); }
  void write_f32(LocalAddr addr, float value) {
    write(addr, std::bit_cast<Word>(value));
  }

  void fill(LocalAddr base, const Word* data, std::size_t count) {
    EMX_CHECK(base + count <= size_, "memory fill out of range");
    for (std::size_t done = 0; done < count;) {
      const std::size_t addr = base + done;
      const std::size_t offset = addr & (kPageWords - 1);
      const std::size_t n = std::min(count - done, kPageWords - offset);
      std::memcpy(writable(addr >> kPageShift) + offset, data + done,
                  n * sizeof(Word));
      done += n;
    }
    if (probe_ != nullptr) probe_(probe_ctx_, base, static_cast<std::uint32_t>(count));
  }

  /// Serializes size + content CRC rather than the raw words: at 4 MB per
  /// PE a full image would dominate the checkpoint, and the
  /// restore-by-replay design only needs to *verify* memory, for which
  /// the digest is as strong a witness as the bytes. The CRC is the
  /// flat crc32 of every word, kept current from the dirty pages alone:
  /// for equal-length inputs crc(a) ^ crc(b) is the unseeded CRC of
  /// a ^ b, so a page whose CRC moved from c0 to c1 moves the digest by
  /// (c0 ^ c1) shifted across the bytes after the page.
  void save(ser::Serializer& s) const {
    if (!saved_) {  // deferred from construction: most runs never save
      digest_ = zeroes_crc(size_ * sizeof(Word));
      saved_ = true;
    }
    if (any_dirty_) {
      for (std::size_t p = 0; p < pages_.size(); ++p) {
        Page& page = pages_[p];
        if (!page.dirty) continue;
        page.dirty = false;
        const std::size_t end = p * kPageWords + page_words(p);
        const std::uint32_t crc = ser::crc32(view_[p], page_words(p) * sizeof(Word));
        if (crc == page.crc) continue;
        digest_ = ser::crc32_combine_op(
            crc ^ page.crc, digest_,
            ser::crc32_combine_gen((size_ - end) * sizeof(Word)));
        page.crc = crc;
      }
      any_dirty_ = false;
    }
    s.u64(size_);
    s.u32(digest_);
  }

 private:
  struct Page {
    std::unique_ptr<Word[]> words;  ///< null while the page reads as zero
    std::uint32_t crc = 0;          ///< valid while !dirty
    bool dirty = false;             ///< written since the last save()
  };

  static constexpr Word kZeroPage[kPageWords] = {};

  /// crc32 of `bytes` zero bytes without reading them: the register
  /// starts at ~0 and each zero byte multiplies it by x^8.
  static std::uint32_t zeroes_crc(std::size_t bytes) {
    return ser::crc32_combine_op(0xFFFFFFFFu, 0xFFFFFFFFu,
                                 ser::crc32_combine_gen(bytes));
  }

  static std::uint32_t zero_page_crc() {
    static const std::uint32_t crc = ser::crc32(kZeroPage, sizeof kZeroPage);
    return crc;
  }

  std::size_t page_words(std::size_t p) const {
    return std::min(kPageWords, size_ - p * kPageWords);
  }

  /// The page's own storage, allocated zeroed on its first write, and
  /// marked dirty for the next save().
  Word* writable(std::size_t p) {
    Page& page = pages_[p];
    if (!page.dirty) {
      if (!page.words) {
        page.words = std::make_unique<Word[]>(kPageWords);
        view_[p] = page.words.get();
      }
      page.dirty = true;
      any_dirty_ = true;
    }
    return page.words.get();
  }

  std::size_t size_;
  std::vector<const Word*> view_;  ///< read path: owned page or kZeroPage
  mutable std::vector<Page> pages_;
  mutable std::uint32_t digest_ = 0;  ///< crc32 of every word as of the last save
  mutable bool saved_ = false;        ///< digest_ holds a value
  mutable bool any_dirty_ = false;    ///< some page written since the last save
  WriteProbe probe_ = nullptr;
  void* probe_ctx_ = nullptr;
};

}  // namespace emx::proc
