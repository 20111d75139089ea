#include "jobs/result_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>

#include "common/fsio.hpp"

namespace emx::jobs {

namespace fs = std::filesystem;

namespace {

constexpr const char kSuffix[] = ".json";

}  // namespace

bool ResultCache::open(const std::string& dir, std::uint64_t max_bytes,
                       std::string& err) {
  const std::string derr = fsio::ensure_writable_dir(dir);
  if (!derr.empty()) {
    err = derr;
    return false;
  }
  dir_ = dir;
  max_bytes_ = max_bytes;
  total_bytes_ = 0;
  next_touch_ = 0;
  entries_.clear();

  // Seed recency from mtimes: oldest file = least recent. Name breaks
  // ties so the order is deterministic under coarse filesystem clocks.
  struct Seed {
    fs::file_time_type mtime;
    std::string key;
    std::uint64_t bytes;
  };
  std::vector<Seed> seeds;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= sizeof kSuffix - 1 ||
        name.compare(name.size() - (sizeof kSuffix - 1), sizeof kSuffix - 1,
                     kSuffix) != 0)
      continue;
    Seed s;
    s.key = name.substr(0, name.size() - (sizeof kSuffix - 1));
    s.mtime = entry.last_write_time(ec);
    s.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    seeds.push_back(std::move(s));
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.key < b.key;
  });
  for (const Seed& s : seeds) {
    Entry e;
    e.bytes = s.bytes;
    e.touch = next_touch_++;
    total_bytes_ += s.bytes;
    entries_.emplace(s.key, e);
  }
  return true;
}

std::string ResultCache::path_for(const std::string& key) const {
  return dir_ + "/" + key + kSuffix;
}

bool ResultCache::lookup(const std::string& key, std::string& bytes) {
  if (!fsio::read_file(path_for(key), bytes)) return false;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // Published behind our back (e.g. by a previous incarnation after
    // our open() scan): adopt it.
    Entry e;
    e.bytes = bytes.size();
    it = entries_.emplace(key, e).first;
    total_bytes_ += e.bytes;
  }
  it->second.touch = next_touch_++;
  // Freshen the mtime so recency survives a restart (best-effort — a
  // failure here costs at worst one recompute later, never a result).
  ::utimensat(AT_FDCWD, path_for(key).c_str(), nullptr, 0);
  return true;
}

std::string ResultCache::publish(const std::string& key,
                                 const std::string& bytes) {
  const std::string werr = fsio::atomic_write_file(path_for(key), bytes);
  if (!werr.empty()) return "cache publish: " + werr;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    it = entries_.emplace(key, Entry{}).first;
  } else {
    total_bytes_ -= it->second.bytes;
  }
  it->second.bytes = bytes.size();
  it->second.touch = next_touch_++;
  total_bytes_ += bytes.size();
  evict_to_cap();
  return "";
}

void ResultCache::evict_to_cap() {
  if (max_bytes_ == 0) return;
  while (total_bytes_ > max_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pinned_.count(it->first) != 0) continue;
      if (victim == entries_.end() ||
          it->second.touch < victim->second.touch)
        victim = it;
    }
    if (victim == entries_.end()) return;  // everything left is pinned
    std::error_code ec;
    fs::remove(path_for(victim->first), ec);
    total_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
  }
}

std::vector<std::string> ResultCache::keys_lru() const {
  std::vector<std::pair<std::uint64_t, std::string>> order;
  order.reserve(entries_.size());
  for (const auto& [key, e] : entries_) order.emplace_back(e.touch, key);
  std::sort(order.begin(), order.end());
  std::vector<std::string> keys;
  keys.reserve(order.size());
  for (auto& [touch, key] : order) keys.push_back(std::move(key));
  return keys;
}

}  // namespace emx::jobs
