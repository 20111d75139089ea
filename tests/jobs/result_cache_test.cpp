// ResultCache LRU cap: eviction removes the least-recently-used entry
// first, never a pinned one — so a supervisor or daemon that pins the
// keys it still references can never lose a result out from under an
// in-flight sweep or job.
#include "jobs/result_cache.hpp"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/test_dir.hpp"

namespace emx::jobs {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = emx::test::test_dir();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string cache_dir() const { return (dir_ / "cache").string(); }

  fs::path dir_;
};

TEST_F(ResultCacheTest, PublishLookupRoundTrip) {
  ResultCache c;
  std::string err;
  ASSERT_TRUE(c.open(cache_dir(), 0, err)) << err;
  ASSERT_EQ(c.publish("a", "result-a\n"), "");
  std::string bytes;
  ASSERT_TRUE(c.lookup("a", bytes));
  EXPECT_EQ(bytes, "result-a\n");
  EXPECT_FALSE(c.lookup("missing", bytes));
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.total_bytes(), 9u);
}

TEST_F(ResultCacheTest, EvictsLeastRecentlyUsedFirst) {
  ResultCache c;
  std::string err;
  // Cap fits two 10-byte entries.
  ASSERT_TRUE(c.open(cache_dir(), 20, err)) << err;
  ASSERT_EQ(c.publish("a", "0123456789"), "");
  ASSERT_EQ(c.publish("b", "0123456789"), "");
  // Touch a: now b is the LRU entry.
  std::string bytes;
  ASSERT_TRUE(c.lookup("a", bytes));
  ASSERT_EQ(c.publish("c", "0123456789"), "");

  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_EQ(c.entries(), 2u);
  EXPECT_TRUE(c.lookup("a", bytes));
  EXPECT_FALSE(c.lookup("b", bytes)) << "b was least recent";
  EXPECT_TRUE(c.lookup("c", bytes));
  EXPECT_FALSE(fs::exists(c.path_for("b")));
}

TEST_F(ResultCacheTest, PinnedEntriesAreNeverEvicted) {
  ResultCache c;
  std::string err;
  ASSERT_TRUE(c.open(cache_dir(), 20, err)) << err;
  ASSERT_EQ(c.publish("a", "0123456789"), "");
  c.pin("a");
  ASSERT_EQ(c.publish("b", "0123456789"), "");
  // a is LRU but pinned: publishing c must sacrifice b instead.
  ASSERT_EQ(c.publish("c", "0123456789"), "");
  std::string bytes;
  EXPECT_TRUE(c.lookup("a", bytes));
  EXPECT_FALSE(c.lookup("b", bytes));
  EXPECT_TRUE(c.lookup("c", bytes));

  // Even a pin set alone above the cap evicts nothing it guards.
  c.pin("c");
  ASSERT_EQ(c.publish("d", "0123456789"), "");
  EXPECT_TRUE(c.lookup("a", bytes));
  EXPECT_TRUE(c.lookup("c", bytes));
  EXPECT_FALSE(fs::exists(c.path_for("d")))
      << "d itself is the only unpinned entry left";

  // Unpinning re-arms eviction on the next publish.
  c.unpin("a");
  ASSERT_EQ(c.publish("e", "0123456789"), "");
  EXPECT_FALSE(c.lookup("a", bytes));
  EXPECT_TRUE(c.lookup("c", bytes));
  EXPECT_TRUE(c.lookup("e", bytes));
}

TEST_F(ResultCacheTest, ZeroCapNeverEvicts) {
  ResultCache c;
  std::string err;
  ASSERT_TRUE(c.open(cache_dir(), 0, err)) << err;
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(c.publish("k" + std::to_string(i), std::string(100, 'x')), "");
  EXPECT_EQ(c.entries(), 32u);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST_F(ResultCacheTest, ReopenSeedsRecencyFromMtimes) {
  // Build a directory by hand with distinct mtimes (oldest first), then
  // open over it: the seeded LRU order must follow the mtimes.
  fs::create_directories(cache_dir());
  ASSERT_EQ(fsio::atomic_write_file(cache_dir() + "/old.json", "aaaa"), "");
  ASSERT_EQ(fsio::atomic_write_file(cache_dir() + "/new.json", "bbbb"), "");
  const auto t = fs::last_write_time(cache_dir() + "/new.json");
  fs::last_write_time(cache_dir() + "/old.json",
                      t - std::chrono::seconds(10));

  ResultCache c;
  std::string err;
  ASSERT_TRUE(c.open(cache_dir(), 0, err)) << err;
  EXPECT_EQ(c.entries(), 2u);
  const std::vector<std::string> lru = c.keys_lru();
  ASSERT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru[0], "old");
  EXPECT_EQ(lru[1], "new");

  // A lookup refreshes recency, in memory and on disk.
  std::string bytes;
  ASSERT_TRUE(c.lookup("old", bytes));
  EXPECT_EQ(c.keys_lru().front(), "new");
  EXPECT_GT(fs::last_write_time(cache_dir() + "/old.json"), t);
}

TEST_F(ResultCacheTest, AdoptsEntriesPublishedBehindItsBack) {
  ResultCache c;
  std::string err;
  ASSERT_TRUE(c.open(cache_dir(), 0, err)) << err;
  // Another process (a concurrent sweep sharing the directory) lands a
  // result the cache never saw published.
  ASSERT_EQ(fsio::atomic_write_file(c.path_for("ghost"), "gg"), "");
  std::string bytes;
  EXPECT_TRUE(c.lookup("ghost", bytes));
  EXPECT_EQ(bytes, "gg");
  EXPECT_EQ(c.entries(), 1u);
}

}  // namespace
}  // namespace emx::jobs
