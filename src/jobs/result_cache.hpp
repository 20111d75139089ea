// Size-capped, pin-aware result cache shared by emx_sweep and emx_serve.
//
// The cache directory holds one `<key>.json` per blessed result, where
// the key embeds the manifest CRC — so a hit is a proof that the exact
// same run recipe already completed. PR 8 grew the directory without
// bound; this class adds an LRU byte cap with an explicit pin set:
//
//   * recency is an in-memory counter, seeded at open() from file
//     mtimes (oldest file = least recent) and bumped on every lookup
//     and publish; lookups also freshen the file's mtime so recency
//     survives a restart, best-effort;
//   * eviction runs after each publish: while the cache exceeds
//     `max_bytes`, the least-recently-used *unpinned* entry is removed.
//     Pinned entries are never evicted, even when the pin set alone
//     exceeds the cap — the job core pins the key of every live exec,
//     so eviction can never drop a result an in-flight job is
//     counting on (the property the tier-1 tests pin).
//
// Recency is deliberately scheduling-dependent state: it decides only
// which keys must be *recomputed*, never what a result contains.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace emx::jobs {

class ResultCache {
 public:
  /// Creates `dir` if needed and indexes the existing `*.json` entries
  /// in mtime order (ties broken by name, so the seed order is
  /// deterministic under coarse clocks). `max_bytes` of 0 disables
  /// eviction. Returns false with `err` when the directory refuses.
  bool open(const std::string& dir, std::uint64_t max_bytes,
            std::string& err);

  const std::string& dir() const { return dir_; }

  /// Where `key`'s entry lives (whether or not it exists).
  std::string path_for(const std::string& key) const;

  /// Reads `key`'s entry into `bytes` and refreshes its recency.
  /// Returns false when absent or unreadable.
  bool lookup(const std::string& key, std::string& bytes);

  /// Atomically publishes `bytes` under `key`, marks it most recent,
  /// then evicts LRU unpinned entries until within the cap. Returns ""
  /// or an error message.
  std::string publish(const std::string& key, const std::string& bytes);

  /// Marks `key` ineligible for eviction until unpin(). Pinning a key
  /// with no entry yet is fine — the pin guards its future publish.
  void pin(const std::string& key) { pinned_.insert(key); }
  void unpin(const std::string& key) { pinned_.erase(key); }
  bool is_pinned(const std::string& key) const {
    return pinned_.count(key) != 0;
  }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t max_bytes() const { return max_bytes_; }
  std::size_t entries() const { return entries_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  /// Keys in least-recently-used-first order (for tests and `status`).
  std::vector<std::string> keys_lru() const;

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t touch = 0;  ///< monotone recency stamp
  };

  void evict_to_cap();

  std::string dir_;
  std::uint64_t max_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t next_touch_ = 0;
  std::uint64_t evictions_ = 0;
  std::map<std::string, Entry> entries_;
  std::set<std::string> pinned_;
};

}  // namespace emx::jobs
