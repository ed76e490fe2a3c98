// ShardedLruCache semantics: LRU eviction order, charge accounting,
// pinned handles surviving eviction/erase, shard distribution,
// zero-capacity pass-through — plus the disk-component contract that a
// compaction-deleted table's blocks leave the block cache with it, while
// a table merely evicted from the table cache keeps its blocks warm.

#include "flodb/common/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "flodb/common/key_codec.h"
#include "flodb/core/memtable_iterator.h"
#include "flodb/disk/disk_component.h"
#include "flodb/disk/mem_env.h"
#include "flodb/mem/memtable.h"

namespace flodb {
namespace {

// Values are heap ints; the deleter counts invocations so tests can pin
// down exactly when entries die.
int g_deleted = 0;

void CountingDeleter(const Slice& /*key*/, void* value) {
  delete static_cast<int*>(value);
  ++g_deleted;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override { g_deleted = 0; }

  // Inserts key -> heap int(v) with `charge` and releases the handle.
  void Insert(ShardedLruCache& cache, const std::string& key, int v, size_t charge = 1) {
    cache.Release(cache.Insert(Slice(key), new int(v), charge, &CountingDeleter));
  }

  // Looks up key; returns the value or -1 on miss. Releases the handle.
  int Get(ShardedLruCache& cache, const std::string& key) {
    ShardedLruCache::Handle* handle = cache.Lookup(Slice(key));
    if (handle == nullptr) {
      return -1;
    }
    const int v = *static_cast<int*>(cache.Value(handle));
    cache.Release(handle);
    return v;
  }
};

TEST_F(CacheTest, InsertLookupRoundTrip) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  Insert(cache, "b", 2);
  EXPECT_EQ(Get(cache, "a"), 1);
  EXPECT_EQ(Get(cache, "b"), 2);
  EXPECT_EQ(Get(cache, "missing"), -1);
  EXPECT_EQ(cache.TotalEntries(), 2u);
}

TEST_F(CacheTest, InsertReplacesExistingKey) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  Insert(cache, "a", 2);
  EXPECT_EQ(Get(cache, "a"), 2);
  EXPECT_EQ(cache.TotalEntries(), 1u);
  EXPECT_EQ(g_deleted, 1);  // the replaced value died
}

TEST_F(CacheTest, EraseRemovesEntry) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  cache.Erase(Slice("a"));
  EXPECT_EQ(Get(cache, "a"), -1);
  EXPECT_EQ(g_deleted, 1);
  cache.Erase(Slice("a"));  // absent key: no-op
  EXPECT_EQ(g_deleted, 1);
}

TEST_F(CacheTest, ChargeAccounting) {
  ShardedLruCache cache(1 << 20);
  Insert(cache, "small", 1, 100);
  Insert(cache, "large", 2, 5000);
  EXPECT_EQ(cache.TotalCharge(), 5100u);
  cache.Erase(Slice("small"));
  EXPECT_EQ(cache.TotalCharge(), 5000u);
  cache.Erase(Slice("large"));
  EXPECT_EQ(cache.TotalCharge(), 0u);
}

TEST_F(CacheTest, LruEvictionOrder) {
  // All keys in one shard so per-shard capacity applies deterministically:
  // probe keys until four land in shard 0, then cap that shard tightly.
  // Per-shard capacity = ceil(48/16) = 3 entries of charge 1.
  ShardedLruCache cache(48);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 4 && i < 10000; ++i) {
    std::string candidate = "k" + std::to_string(i);
    if (cache.ShardOf(Slice(candidate)) == 0) {
      keys.push_back(candidate);
    }
  }
  ASSERT_EQ(keys.size(), 4u);
  Insert(cache, keys[0], 0);
  Insert(cache, keys[1], 1);
  Insert(cache, keys[2], 2);
  // Touch keys[0]: keys[1] becomes the LRU victim.
  EXPECT_EQ(Get(cache, keys[0]), 0);
  Insert(cache, keys[3], 3);
  EXPECT_EQ(Get(cache, keys[1]), -1);  // evicted
  EXPECT_EQ(Get(cache, keys[0]), 0);
  EXPECT_EQ(Get(cache, keys[2]), 2);
  EXPECT_EQ(Get(cache, keys[3]), 3);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST_F(CacheTest, PinnedHandleSurvivesEviction) {
  // One shard again for deterministic capacity pressure.
  ShardedLruCache cache(16);  // per-shard capacity: 1 entry of charge 1
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 5 && i < 10000; ++i) {
    std::string candidate = "p" + std::to_string(i);
    if (cache.ShardOf(Slice(candidate)) == 0) {
      keys.push_back(candidate);
    }
  }
  ASSERT_EQ(keys.size(), 5u);
  ShardedLruCache::Handle* pinned =
      cache.Insert(Slice(keys[0]), new int(42), 1, &CountingDeleter);

  // Push several more entries through the same shard: keys[0] cannot be
  // freed while pinned, even though it is far over capacity and later
  // inserts would love its slot.
  for (int i = 1; i < 5; ++i) {
    Insert(cache, keys[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(*static_cast<int*>(cache.Value(pinned)), 42);

  // Explicit erase while pinned: still alive through the handle.
  cache.Erase(Slice(keys[0]));
  EXPECT_EQ(*static_cast<int*>(cache.Value(pinned)), 42);
  const int deleted_before_release = g_deleted;

  cache.Release(pinned);
  EXPECT_EQ(g_deleted, deleted_before_release + 1);  // freed exactly now
  EXPECT_EQ(Get(cache, keys[0]), -1);                // and unreachable
}

TEST_F(CacheTest, PinnedChargeTracked) {
  ShardedLruCache cache(1 << 20);
  ShardedLruCache::Handle* pinned =
      cache.Insert(Slice("a"), new int(1), 500, &CountingDeleter);
  EXPECT_EQ(cache.GetStats().pinned_charge, 500u);
  cache.Release(pinned);
  EXPECT_EQ(cache.GetStats().pinned_charge, 0u);
  EXPECT_EQ(cache.TotalCharge(), 500u);  // still resident, just unpinned
}

TEST_F(CacheTest, ZeroCapacityPassThrough) {
  ShardedLruCache cache(0);
  ShardedLruCache::Handle* handle =
      cache.Insert(Slice("a"), new int(7), 100, &CountingDeleter);
  // The caller's handle works...
  EXPECT_EQ(*static_cast<int*>(cache.Value(handle)), 7);
  EXPECT_EQ(cache.GetStats().pinned_charge, 100u);
  // ...but nothing is retained.
  EXPECT_EQ(cache.TotalEntries(), 0u);
  EXPECT_EQ(cache.TotalCharge(), 0u);
  EXPECT_EQ(Get(cache, "a"), -1);
  cache.Release(handle);
  EXPECT_EQ(g_deleted, 1);
  EXPECT_EQ(cache.GetStats().pinned_charge, 0u);
}

TEST_F(CacheTest, ShardDistribution) {
  ShardedLruCache cache(1 << 20);
  for (int i = 0; i < 2000; ++i) {
    Insert(cache, "key-" + std::to_string(i), i);
  }
  // Every shard should hold a meaningful slice (expected 125 each); a
  // degenerate hash would pile everything into a few shards.
  for (int shard = 0; shard < ShardedLruCache::kNumShards; ++shard) {
    EXPECT_GT(cache.ShardCharge(static_cast<size_t>(shard)), 50u) << "shard " << shard;
  }
}

TEST_F(CacheTest, HitMissStats) {
  ShardedLruCache cache(1024);
  Insert(cache, "a", 1);
  EXPECT_EQ(Get(cache, "a"), 1);
  EXPECT_EQ(Get(cache, "a"), 1);
  EXPECT_EQ(Get(cache, "nope"), -1);
  const ShardedLruCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(CacheTest, DestructorFreesResidentEntries) {
  {
    ShardedLruCache cache(1 << 20);
    for (int i = 0; i < 100; ++i) {
      Insert(cache, "d" + std::to_string(i), i);
    }
  }
  EXPECT_EQ(g_deleted, 100);
}

// ---------------------------------------------------------------------------
// DiskComponent integration: table deletion purges cached blocks.
// ---------------------------------------------------------------------------

// MemEnv that counts RandomAccessFile reads, to tell block-cache hits
// from reads that reach the Env.
class ReadCountingEnv final : public Env {
 public:
  uint64_t reads() const { return reads_.load(); }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_.NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_.NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      *result = std::make_unique<CountingFile>(std::move(file), &reads_);
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_.NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override { return base_.FileExists(fname); }
  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_.GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override { return base_.RemoveFile(fname); }
  Status CreateDir(const std::string& dirname) override { return base_.CreateDir(dirname); }
  Status GetFileSize(const std::string& fname, uint64_t* file_size) override {
    return base_.GetFileSize(fname, file_size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return base_.RenameFile(src, target);
  }

 private:
  class CountingFile final : public RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<RandomAccessFile> base, std::atomic<uint64_t>* reads)
        : base_(std::move(base)), reads_(reads) {}
    Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
      reads_->fetch_add(1);
      return base_->Read(offset, n, result, scratch);
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::atomic<uint64_t>* reads_;
  };

  MemEnv base_;
  std::atomic<uint64_t> reads_{0};
};

class DiskCachePurgeTest : public ::testing::Test {
 protected:
  DiskOptions SmallDisk() {
    DiskOptions options;
    options.env = &env_;
    options.path = "/db";
    options.sstable_target_bytes = 64 << 10;
    options.block_bytes = 1024;
    options.l0_compaction_trigger = 4;
    options.block_cache_bytes = 1 << 20;
    options.compaction_threads = 1;
    return options;
  }

  void FlushRange(uint64_t lo, uint64_t hi, uint64_t seq_base, const std::string& tag) {
    MemTable table(1 << 20);
    for (uint64_t k = lo; k < hi; ++k) {
      table.Add(Slice(EncodeKey(k)), Slice(tag + std::to_string(k)), seq_base + (k - lo),
                ValueType::kValue);
    }
    MemTableIterator iter(&table);
    ASSERT_TRUE(disk_->AddRun(&iter).ok());
  }

  MemEnv env_;
  ReadCountingEnv counting_env_;
  std::unique_ptr<DiskComponent> disk_;
};

TEST_F(DiskCachePurgeTest, CompactionDeletedTablesBlocksArePurged) {
  ASSERT_TRUE(DiskComponent::Open(SmallDisk(), &disk_).ok());

  // Three overlapping L0 runs; read every key so their blocks populate
  // the cache.
  FlushRange(0, 500, 1, "a");
  FlushRange(0, 500, 1000, "b");
  FlushRange(0, 500, 2000, "c");
  std::string value;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    EXPECT_EQ(value, "c" + std::to_string(k));
  }
  ASSERT_GT(disk_->block_cache()->TotalCharge(), 0u);

  // A fourth run trips the L0 trigger; the compaction merges all four
  // into L1 and deletes the inputs — whose blocks must leave the cache
  // with them. No reads happen after the compaction, so every surviving
  // cached block would belong to a deleted file.
  FlushRange(0, 500, 3000, "d");
  disk_->WaitForCompactions();

  EXPECT_EQ(disk_->block_cache()->TotalCharge(), 0u)
      << "blocks of compaction-deleted tables must be purged";
  EXPECT_EQ(disk_->block_cache()->TotalEntries(), 0u);

  // The data itself survived the purge, now served from the new L1 file.
  ASSERT_TRUE(disk_->Get(Slice(EncodeKey(123)), &value, nullptr, nullptr).ok());
  EXPECT_EQ(value, "d123");
  EXPECT_GT(disk_->block_cache()->TotalCharge(), 0u);
}

TEST_F(DiskCachePurgeTest, BoundedTableCacheEvictsAndReopens) {
  DiskOptions options = SmallDisk();
  options.table_cache_entries = 2;
  options.l0_compaction_trigger = 100;  // keep every run in L0
  options.compaction_threads = 0;
  ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());

  // Six disjoint runs -> six tables, but only two may be open at once.
  for (uint64_t i = 0; i < 6; ++i) {
    FlushRange(i * 100, (i + 1) * 100, 1 + i * 1000, "v");
  }
  // Two passes: the second revisits tables the first pass evicted, so
  // transparent reopens show up as misses beyond the initial six opens.
  std::string value;
  for (int round = 0; round < 2; ++round) {
    for (uint64_t k = 0; k < 600; ++k) {
      ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
      EXPECT_EQ(value, "v" + std::to_string(k));
    }
  }
  const DiskComponent::Stats stats = disk_->GetStats();
  EXPECT_LE(stats.table_cache_entries, 2u);
  EXPECT_GT(stats.table_cache_evictions, 0u);
  EXPECT_GT(stats.table_cache_misses, 6u);
}

TEST_F(DiskCachePurgeTest, ReopenedTableServesBlocksFromCache) {
  DiskOptions options = SmallDisk();
  options.env = &counting_env_;
  options.table_cache_entries = 2;
  options.l0_compaction_trigger = 100;  // keep every run in L0
  options.compaction_threads = 0;
  ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());

  // Six disjoint runs -> six tables, two open at a time. Each round reads
  // every key in order, so a round opens each table it finds evicted.
  for (uint64_t i = 0; i < 6; ++i) {
    FlushRange(i * 100, (i + 1) * 100, 1 + i * 1000, "v");
  }
  struct Round {
    uint64_t env_reads, block_hits, block_misses, table_opens;
  };
  auto read_all = [&] {
    const DiskComponent::Stats before = disk_->GetStats();
    const uint64_t reads_before = counting_env_.reads();
    std::string value;
    for (uint64_t k = 0; k < 600; ++k) {
      EXPECT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
      EXPECT_EQ(value, "v" + std::to_string(k));
    }
    const DiskComponent::Stats after = disk_->GetStats();
    return Round{counting_env_.reads() - reads_before, after.block_cache_hits - before.block_cache_hits,
                 after.block_cache_misses - before.block_cache_misses,
                 after.table_cache_misses - before.table_cache_misses};
  };

  // Cold round: six opens, and every block comes from the Env once.
  const Round cold = read_all();
  ASSERT_EQ(cold.table_opens, 6u);
  ASSERT_GT(cold.block_misses, 0u);
  const uint64_t reads_per_open = (cold.env_reads - cold.block_misses) / cold.table_opens;

  // Warm round: tables evicted by the cold round are opened again, and
  // their blocks are still cached. The Env sees the opens and nothing
  // else.
  const Round warm = read_all();
  EXPECT_GT(warm.table_opens, 0u) << "the round must reopen evicted tables";
  EXPECT_GT(warm.block_hits, cold.block_hits);
  EXPECT_EQ(warm.block_misses, 0u) << "eviction from the table cache must not drop blocks";
  EXPECT_EQ(warm.env_reads, warm.table_opens * reads_per_open);
}

TEST_F(DiskCachePurgeTest, DeletedTableWithEvictedReaderIsPurged) {
  DiskOptions options = SmallDisk();
  options.table_cache_entries = 2;
  ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());

  // Three disjoint L0 runs, every key read so each file has blocks in
  // the cache; with two table slots at least one reader is evicted.
  FlushRange(0, 200, 1, "a");
  FlushRange(200, 400, 1000, "b");
  FlushRange(400, 600, 2000, "c");
  std::string value;
  for (uint64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
  }
  ASSERT_GT(disk_->GetStats().table_cache_evictions, 0u);
  ASSERT_GT(disk_->block_cache()->TotalCharge(), 0u);

  // A fourth run trips the L0 trigger. The compaction reopens its inputs
  // through the two-slot cache, so some input readers are evicted again
  // before the sweep deletes their files; the sweep must purge those
  // files' blocks too.
  FlushRange(600, 800, 3000, "d");
  disk_->WaitForCompactions();
  ASSERT_EQ(disk_->CurrentVersion()->LevelFiles(0).size(), 0u);

  EXPECT_EQ(disk_->block_cache()->TotalCharge(), 0u)
      << "blocks of a deleted table must be purged even when its reader was evicted";
  EXPECT_EQ(disk_->block_cache()->TotalEntries(), 0u);
}

TEST_F(DiskCachePurgeTest, BlockCacheDisabledServesReads) {
  DiskOptions options = SmallDisk();
  options.block_cache_bytes = 0;
  ASSERT_TRUE(DiskComponent::Open(options, &disk_).ok());
  EXPECT_EQ(disk_->block_cache(), nullptr);

  FlushRange(0, 200, 1, "x");
  std::string value;
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    EXPECT_EQ(value, "x" + std::to_string(k));
  }
  const DiskComponent::Stats stats = disk_->GetStats();
  EXPECT_EQ(stats.block_cache_hits, 0u);
  EXPECT_EQ(stats.block_cache_misses, 0u);
}

TEST_F(DiskCachePurgeTest, RepeatedReadsHitBlockCache) {
  ASSERT_TRUE(DiskComponent::Open(SmallDisk(), &disk_).ok());
  FlushRange(0, 200, 1, "y");
  std::string value;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(disk_->Get(Slice(EncodeKey(k)), &value, nullptr, nullptr).ok());
    }
  }
  const DiskComponent::Stats stats = disk_->GetStats();
  EXPECT_GT(stats.block_cache_hits, stats.block_cache_misses);
  EXPECT_GT(stats.BlockCacheHitRate(), 0.5);
}

}  // namespace
}  // namespace flodb
