#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "flodb/common/arena.h"
#include "flodb/common/coding.h"
#include "flodb/common/random.h"
#include "flodb/core/flodb.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/crc32c.h"
#include "flodb/disk/mem_env.h"
#include "flodb/disk/wal.h"
#include "flodb/mem/membuffer.h"
#include "flodb/mem/memtable.h"
#include "flodb/sync/rcu.h"

namespace perfbench {

namespace {

using flodb::Slice;

// Matches the update_hot workload: uniform over 20k keys.
constexpr uint64_t kHotKeys = 20'000;
// Wall time of one rung.
constexpr double kRungSeconds = 0.25;
// Operations between two looks at the stop flag.
constexpr int kCheckEvery = 64;

// Runs body(thread, stop) on `threads` threads for kRungSeconds; each
// body returns its completed operations. Returns total ops per second.
double RunRung(int threads, const std::function<uint64_t(int, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<uint64_t> ops(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
        std::this_thread::yield();
      }
      ops[static_cast<size_t>(t)] = body(t, stop);
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  const uint64_t start = Now();
  go.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(kRungSeconds));
  stop.store(true);
  for (std::thread& w : workers) {
    w.join();
  }
  const double seconds = static_cast<double>(Now() - start) * 1e-9;
  uint64_t total = 0;
  for (uint64_t n : ops) {
    total += n;
  }
  return static_cast<double>(total) / seconds;
}

// A key stream like update_hot's, per (seed, thread).
class HotKeys {
 public:
  HotKeys(uint64_t seed, int thread) : rng_(seed * 0x9e3779b9u + static_cast<uint64_t>(thread)) {}
  Slice Next() { return KeyFor(rng_.Uniform(kHotKeys), kHotKeys, &buf_); }

 private:
  flodb::Random64 rng_;
  flodb::KeyBuf buf_;
};

std::string FixedValue() {
  char value[kValueBytes];
  flodb::KeyBuf buf;
  EncodeValue(buf.Set(0), 0, 0, value);
  return std::string(value, kValueBytes);
}

double MembufferAddMops(uint64_t seed, int threads) {
  flodb::MemBuffer::Options options;
  const flodb::FloDbOptions defaults;
  options.capacity_bytes =
      static_cast<size_t>(static_cast<double>(defaults.memory_budget_bytes) *
                          defaults.membuffer_fraction);
  options.partition_bits = defaults.membuffer_partition_bits;
  options.avg_entry_bytes_hint = defaults.membuffer_avg_entry_hint;
  flodb::MemBuffer buffer(options);
  const std::string value = FixedValue();
  return RunRung(threads, [&](int t, const std::atomic<bool>& stop) {
           HotKeys keys(seed, t);
           uint64_t n = 0;
           while (!stop.load(std::memory_order_relaxed)) {
             for (int i = 0; i < kCheckEvery; ++i, ++n) {
               buffer.Add(keys.Next(), value, flodb::ValueType::kValue);
             }
           }
           return n;
         }) /
         1e6;
}

// Memtable of the store's default size (the 3/4 of the budget not given
// to the Membuffer).
std::unique_ptr<flodb::MemTable> NewMemTable() {
  const flodb::FloDbOptions defaults;
  return std::make_unique<flodb::MemTable>(static_cast<size_t>(
      static_cast<double>(defaults.memory_budget_bytes) * (1.0 - defaults.membuffer_fraction)));
}

double MemtableAddMops(uint64_t seed, int threads) {
  auto table = NewMemTable();
  const std::string value = FixedValue();
  return RunRung(threads, [&](int t, const std::atomic<bool>& stop) {
           HotKeys keys(seed, t);
           uint64_t n = 0;
           while (!stop.load(std::memory_order_relaxed)) {
             for (int i = 0; i < kCheckEvery; ++i, ++n) {
               // Unique per-thread seqs, so no shared counter is measured.
               table->Add(keys.Next(), value, n * kClientThreads + static_cast<uint64_t>(t) + 1,
                          flodb::ValueType::kValue);
             }
           }
           return n;
         }) /
         1e6;
}

// Entries per second inserted through 64-entry sorted multi-inserts (the
// drain thread's batch size).
double MemtableMultiAddMops(uint64_t seed, int threads) {
  auto table = NewMemTable();
  const std::string value = FixedValue();
  const size_t batch = flodb::FloDbOptions().drain_batch;
  return RunRung(threads, [&](int t, const std::atomic<bool>& stop) {
           HotKeys keys(seed, t);
           std::vector<std::string> key_store(batch);
           std::vector<flodb::ConcurrentSkipList::BatchEntry> entries(batch);
           uint64_t n = 0;
           uint64_t round = 0;
           while (!stop.load(std::memory_order_relaxed)) {
             for (std::string& k : key_store) {
               k = keys.Next().ToString();
             }
             std::sort(key_store.begin(), key_store.end());
             ++round;
             for (size_t i = 0; i < batch; ++i) {
               entries[i] = {Slice(key_store[i]), Slice(value), flodb::ValueType::kValue,
                             round * kClientThreads + static_cast<uint64_t>(t)};
             }
             table->MultiAdd(entries);
             n += batch;
           }
           return n;
         }) /
         1e6;
}

double RcuGuardNs(int threads) {
  flodb::Rcu rcu;
  const double per_second = RunRung(threads, [&](int, const std::atomic<bool>& stop) {
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kCheckEvery; ++i, ++n) {
        flodb::RcuReadGuard guard(rcu);
      }
    }
    return n;
  });
  return 1e9 * threads / per_second;
}

// Mops of FloDB::Put with default options; persistence off gives the
// memory component alone.
bool StorePutMops(uint64_t seed, int threads, bool persistence, double* mops,
                  std::string* error) {
  flodb::MemEnv env;
  flodb::FloDbOptions options;
  options.enable_persistence = persistence;
  options.disk.env = &env;
  options.disk.path = "/ladder";
  std::unique_ptr<flodb::FloDB> db;
  flodb::Status s = flodb::FloDB::Open(options, &db);
  if (!s.ok()) {
    *error = "ladder open: " + s.ToString();
    return false;
  }
  std::atomic<uint64_t> failures{0};
  const std::string value = FixedValue();
  *mops = RunRung(threads, [&](int t, const std::atomic<bool>& stop) {
            HotKeys keys(seed, t);
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
              for (int i = 0; i < kCheckEvery; ++i, ++n) {
                if (!db->Put(keys.Next(), value).ok()) {
                  failures.fetch_add(1, std::memory_order_relaxed);
                }
              }
            }
            return n;
          }) /
          1e6;
  if (failures.load() != 0) {
    *error = "ladder put failed";
    return false;
  }
  return true;
}

// Times `body(i)` over `iterations` calls; returns ns per call.
template <typename Body>
double NsPerCall(uint64_t iterations, Body&& body) {
  const uint64_t start = Now();
  for (uint64_t i = 0; i < iterations; ++i) {
    body(i);
  }
  return static_cast<double>(Now() - start) / static_cast<double>(iterations);
}

double Crc32cMbPerSecond(uint64_t seed) {
  std::string block(4096, '\0');
  flodb::Random64 rng(seed);
  for (char& c : block) {
    c = static_cast<char>(rng.Next());
  }
  uint32_t crc = 0;
  constexpr uint64_t kBlocks = 4096;
  const double ns = NsPerCall(kBlocks, [&](uint64_t) {
    crc = flodb::crc32c::Extend(crc, block.data(), block.size());
  });
  volatile uint32_t sink = crc;
  (void)sink;
  return static_cast<double>(block.size()) / ns * 1e3;
}

double VarintNs(uint64_t seed) {
  std::vector<uint64_t> values(1024);
  flodb::Random64 rng(seed);
  for (uint64_t& v : values) {
    v = rng.Next() >> (rng.Next() % 64);
  }
  char buf[flodb::kMaxVarint64Bytes];
  uint64_t sum = 0;
  const double ns = NsPerCall(1u << 21, [&](uint64_t i) {
    char* end = flodb::EncodeVarint64(buf, values[i & 1023]);
    uint64_t decoded = 0;
    flodb::GetVarint64Ptr(buf, end, &decoded);
    sum += decoded;
  });
  volatile uint64_t sink = sum;
  (void)sink;
  return ns;
}

double HashNs(uint64_t seed) {
  flodb::KeyBuf buf;
  uint64_t sum = 0;
  const double ns = NsPerCall(1u << 21, [&](uint64_t i) {
    sum += flodb::Hash64(KeyFor(i % kHotKeys, kHotKeys, &buf), seed);
  });
  volatile uint64_t sink = sum;
  (void)sink;
  return ns;
}

// One Membuffer record (header + 8 B key + 100 B value).
double ArenaAllocNs() {
  constexpr uint64_t kPerArena = 1u << 17;
  double total = 0.0;
  for (int round = 0; round < 8; ++round) {
    flodb::ConcurrentArena arena;
    total += NsPerCall(kPerArena, [&](uint64_t) {
      char* p = arena.Allocate(12 + kUserBytesPerEntry);
      p[0] = 1;
    });
  }
  return total / 8;
}

bool WalAddBatchNs(double* ns, std::string* error) {
  flodb::MemEnv env;
  std::unique_ptr<flodb::WritableFile> file;
  flodb::Status s = env.NewWritableFile("/ladder-wal.log", &file);
  if (!s.ok()) {
    *error = "ladder wal: " + s.ToString();
    return false;
  }
  flodb::WalWriter wal(std::move(file));
  flodb::WriteBatch batch;
  flodb::KeyBuf key;
  batch.Put(key.Set(7), FixedValue());
  *ns = NsPerCall(1u << 17, [&](uint64_t) {
    if (s.ok()) {
      s = wal.AddBatch(1, batch.rep());
    }
  });
  if (!s.ok()) {
    *error = "ladder wal append: " + s.ToString();
    return false;
  }
  return true;
}

}  // namespace

bool RunLadder(uint64_t seed, Metrics* out, std::string* error) {
  out->push_back({"ladder.membuffer_add_mops.t1", MembufferAddMops(seed, 1), "Mop/s"});
  out->push_back({"ladder.membuffer_add_mops.t3", MembufferAddMops(seed, 3), "Mop/s"});
  out->push_back({"ladder.memtable_add_mops.t1", MemtableAddMops(seed, 1), "Mop/s"});
  out->push_back({"ladder.memtable_add_mops.t3", MemtableAddMops(seed, 3), "Mop/s"});
  out->push_back({"ladder.memtable_multiadd_mops.t3", MemtableMultiAddMops(seed, 3), "Mop/s"});
  out->push_back({"ladder.rcu_guard_ns.t3", RcuGuardNs(3), "ns"});
  for (const bool persistence : {false, true}) {
    for (const int threads : {1, 3}) {
      double mops = 0.0;
      if (!StorePutMops(seed, threads, persistence, &mops, error)) {
        return false;
      }
      out->push_back({std::string(persistence ? "ladder.store_put_mops.t"
                                              : "ladder.memory_only_put_mops.t") +
                          std::to_string(threads),
                      mops, "Mop/s"});
    }
  }
  out->push_back({"ladder.crc32c_mb_per_s", Crc32cMbPerSecond(seed), "MB/s"});
  out->push_back({"ladder.varint_ns", VarintNs(seed), "ns"});
  out->push_back({"ladder.hash_ns", HashNs(seed), "ns"});
  out->push_back({"ladder.arena_alloc_ns", ArenaAllocNs(), "ns"});
  double wal_ns = 0.0;
  if (!WalAddBatchNs(&wal_ns, error)) {
    return false;
  }
  out->push_back({"ladder.wal_add_batch_ns", wal_ns, "ns"});
  return true;
}

}  // namespace perfbench
