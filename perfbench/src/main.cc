// flodb_perfbench: FloDB's end-to-end and per-layer benchmark.
//
//   flodb_perfbench --workload update_hot|read_zipf|durable_mix --seed N
//                   --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Sets the store up several times (setup_s is the median), then opens
// FloDB through its public API with library-default FloDbOptions on
// MemEnv (wrapped by BenchEnv) and runs the workload as a closed loop of
// kClientThreads client threads: a warm-up, then S seconds split into
// kWindows windows. Every result is checked, during the run and by a pass
// over the whole store after it. Prints two JSON lines: a record of the
// run (machine, build, sample counts, raw numbers), then the result object
// {correct, attempted, failed, metrics}. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from a run that traces
// every other window, followed by the layer ladder. Spans are written to
// DIR/trace-<workload>.csv when the run ends.

#include <malloc.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "bench_env.h"
#include "flodb/bench_util/workload.h"
#include "flodb/common/random.h"
#include "flodb/core/flodb.h"
#include "flodb/core/write_batch.h"
#include "flodb/disk/fault_env.h"
#include "flodb/disk/mem_env.h"
#include "ladder.h"
#include "trace.h"

namespace perfbench {
namespace {

using flodb::FloDB;
using flodb::Slice;
using flodb::Status;

// Why each workload exists is recorded in BENCHMARK.json.
struct WorkloadDef {
  const char* name;
  uint64_t key_space;
  double put_share;
  double get_share;  // the rest are scans
  bool zipf;         // scrambled zipfian(0.99) keys, else uniform
  bool preload;      // load every key before timing
  bool durable;      // WAL, sync=true writes, 100 us fsync, crash check
  int setup_reps;    // set-ups per run; setup_s is their median
  double warmup_s;   // clients run this long before timing starts
  int trace_every;   // the traced run spans 1 in this many client ops
};

constexpr WorkloadDef kWorkloads[] = {
    {"update_hot", 20'000, 1.0, 0.0, false, true, false, 9, 1.0, 64},
    {"read_zipf", 1'000'000, 0.1, 0.9, true, true, false, 3, 3.0, 16},
    {"durable_mix", 1'000'000, 0.95, 0.0, false, false, true, 9, 1.0, 1},
};

constexpr size_t kScanLength = 100;
// Time of each timed verification read pass (point reads, probe scans).
// Their latencies are medians over kWindows windows of it, so it is long
// enough that a burst of load from elsewhere on the machine moves only a
// window or two.
constexpr double kVerifyReadSeconds = 2.0;
constexpr size_t kTimedGetKeys = 20'000;
constexpr int kFsyncMicros = 100;
constexpr double kZipfTheta = 0.99;
// A put slower than this counts toward core.put.slow_share.
constexpr uint64_t kSlowPutNanos = 1'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

// ---------------------------------------------------------------------
// The store and the environments under it, set up once per repetition.

struct Instance {
  std::unique_ptr<flodb::MemEnv> mem;
  std::unique_ptr<flodb::FaultInjectionEnv> fault;  // durable_mix only
  std::unique_ptr<BenchEnv> env;
  flodb::FloDbOptions options;
  std::unique_ptr<FloDB> db;

  // The store goes before the environments it writes through.
  void Close() {
    db.reset();
    env.reset();
    fault.reset();
    mem.reset();
  }
};

Status OpenInstance(const WorkloadDef& w, Instance* inst) {
  inst->mem = std::make_unique<flodb::MemEnv>();
  flodb::Env* below = inst->mem.get();
  if (w.durable) {
    inst->fault = std::make_unique<flodb::FaultInjectionEnv>(inst->mem.get());
    below = inst->fault.get();
  }
  inst->env = std::make_unique<BenchEnv>(below, w.durable ? kFsyncMicros * 1000 : 0);
  inst->options.disk.env = inst->env.get();
  inst->options.disk.path = "/db";
  inst->options.enable_wal = w.durable;
  return FloDB::Open(inst->options, &inst->db);
}

// The load flushes and waits for compactions after every this many keys,
// fewer than a Memtable holds, so flushes and compactions happen at the
// same points on every run and the loaded store has the same shape.
constexpr uint64_t kLoadFlushEvery = 51'200;

// Loads every key once, in a seed-dependent random order, in batches.
Status Preload(const WorkloadDef& w, uint64_t seed, FloDB* db) {
  constexpr uint64_t kPrime = 2654435761u;  // coprime to both key spaces
  const uint64_t offset = flodb::MixU64(seed) % w.key_space;
  flodb::KeyBuf key_buf;
  char value[kValueBytes];
  flodb::WriteBatch batch;
  for (uint64_t i = 0; i < w.key_space; ++i) {
    const Slice key = KeyFor((i * kPrime + offset) % w.key_space, w.key_space, &key_buf);
    EncodeValue(key, kLoaderWriter, 0, value);
    batch.Put(key, Slice(value, kValueBytes));
    if (batch.Count() == flodb::bench::kLoadBatchEntries || i + 1 == w.key_space) {
      Status s = db->Write(flodb::WriteOptions(), &batch);
      if (s.ok() && (i + 1) % kLoadFlushEvery == 0) {
        s = db->FlushAll();
      }
      if (!s.ok()) {
        return s;
      }
      batch.Clear();
    }
  }
  return Status::OK();
}

// Samples, on its own thread, the bytes the allocator has handed out
// (live heap plus mmapped chunks) and keeps the peak. Unlike RSS this does
// not count memory glibc keeps after it was freed: each master scan
// allocates a new Membuffer and frees the old one from another thread, and
// how much of that stays resident swung durable_mix's RSS between 0.45 and
// 2.4 GB while its live heap stayed near 100 MB.
class HeapPeak {
 public:
  HeapPeak() : sampler_([this] { Loop(); }) {}
  ~HeapPeak() { Stop(); }
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;

  // Stops sampling; returns the peak in MiB.
  double StopMb() {
    Stop();
    return static_cast<double>(peak_) / (1 << 20);
  }

 private:
  void Stop() {
    stop_.store(true);
    if (sampler_.joinable()) {
      sampler_.join();
    }
  }
  void Loop() {
    while (!stop_.load()) {
      const struct mallinfo2 info = mallinfo2();
      peak_ = std::max<uint64_t>(peak_, info.uordblks + info.hblkhd);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::atomic<bool> stop_{false};
  uint64_t peak_ = 0;  // written by the sampler only; read after join
  std::thread sampler_;
};

// Open + load + settle; returns its wall time in seconds, or -1.
double SetUp(const WorkloadDef& w, uint64_t seed, Instance* inst, std::string* error) {
  const uint64_t start = Now();
  Status s = OpenInstance(w, inst);
  if (s.ok() && w.preload) {
    s = Preload(w, seed, inst->db.get());
  }
  if (s.ok()) {
    s = inst->db->FlushAll();
  }
  if (!s.ok()) {
    *error = "set-up: " + s.ToString();
    return -1.0;
  }
  return static_cast<double>(Now() - start) * 1e-9;
}

// ---------------------------------------------------------------------
// Client threads.

// Results checked and failed, with the first failure's description.
struct Tally {
  uint64_t checked = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    if (failed++ == 0) {
      first_error = what;
    }
  }
  void Add(const Tally& other) {
    checked += other.checked;
    if (failed == 0) {
      first_error = other.first_error;
    }
    failed += other.failed;
  }
};

struct alignas(64) Client {
  WindowedLatency put_lat;
  WindowedLatency get_lat;
  WindowedLatency scan_lat;
  std::atomic<uint64_t> completed{0};
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t acked_puts = 0;
  // last[k]: counter of this client's last acknowledged put of logical
  // key k (0: none).
  std::vector<uint32_t> last;
  Tally tally;  // failures only; every operation counts as attempted
};

using ScanResult = std::vector<std::pair<std::string, std::string>>;

// Logical key of a store key, or key_space when it is not one.
uint64_t LogicalKey(const Slice& key, uint64_t key_space) {
  const uint64_t raw = flodb::DecodeKey(key);
  const uint64_t stride = ~uint64_t{0} / key_space;
  const uint64_t k = raw / stride;
  return (key.size() == flodb::kEncodedKeyBytes && raw % stride == 0 && k < key_space) ? k
                                                                                     : key_space;
}

struct RunContext {
  const WorkloadDef* w = nullptr;
  uint64_t seed = 0;
  FloDB* db = nullptr;
  std::unique_ptr<flodb::bench::ZipfianGenerator> zipf;
  std::atomic<bool> go{false};
  // The current measurement window; -1 outside the timed phase.
  std::atomic<int> window{-1};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Client>> clients;
};

uint64_t NextLogicalKey(const RunContext& ctx, int t, flodb::Random64* rng) {
  const WorkloadDef& w = *ctx.w;
  if (w.zipf) {
    // A fixed scramble (as in YCSB): the seed changes the draws, not which
    // keys are hot, so runs with different seeds stress the same blocks.
    return flodb::MixU64(ctx.zipf->Next(*rng)) % w.key_space;
  }
  if (w.durable) {
    // Each key is owned by one client: k % kClientThreads == t.
    return rng->Uniform(w.key_space / kClientThreads) * kClientThreads + static_cast<uint64_t>(t);
  }
  return rng->Uniform(w.key_space);
}

void ClientLoop(RunContext* ctx, int t) {
  const WorkloadDef& w = *ctx->w;
  Client& c = *ctx->clients[static_cast<size_t>(t)];
  flodb::Random64 rng(ctx->seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t) + 1);
  flodb::WriteOptions write_options;
  write_options.sync = w.durable;
  const flodb::ReadOptions read_options;
  flodb::KeyBuf key_buf;
  char value[kValueBytes];
  std::string got;
  ScanResult scanned;
  uint32_t counter = 0;
  uint64_t n = 0;
  MarkClientThread();
  while (!ctx->go.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  while (!ctx->stop.load(std::memory_order_relaxed)) {
    const double r = rng.NextDouble();
    const uint64_t k = NextLogicalKey(*ctx, t, &rng);
    const Slice key = KeyFor(k, w.key_space, &key_buf);
    const bool sampled = (n++ % static_cast<uint64_t>(w.trace_every)) == 0;
    const int window = ctx->window.load(std::memory_order_relaxed);
    if (r < w.put_share) {
      EncodeValue(key, static_cast<uint8_t>(t), ++counter, value);
      const uint64_t start = Now();
      Status s;
      {
        ScopedSpan span(SpanName::kPut, sampled);
        s = ctx->db->Put(write_options, key, Slice(value, kValueBytes));
      }
      if (window >= 0) {
        c.put_lat.Add(window, Now() - start);
      }
      ++c.puts;
      if (s.ok()) {
        c.last[k] = counter;
        ++c.acked_puts;
      } else {
        c.tally.Fail("put: " + s.ToString());
      }
    } else if (r < w.put_share + w.get_share) {
      const uint64_t start = Now();
      Status s;
      {
        ScopedSpan span(SpanName::kGet, sampled);
        s = ctx->db->Get(read_options, key, &got);
      }
      if (window >= 0) {
        c.get_lat.Add(window, Now() - start);
      }
      ++c.gets;
      DecodedValue d;
      if (s.IsNotFound() && !w.preload) {
        // Not written yet.
      } else if (!s.ok()) {
        c.tally.Fail("get: " + s.ToString());
      } else if (!DecodeValue(key, got, &d)) {
        c.tally.Fail("get returned a wrong value");
      }
    } else {
      const uint64_t start = Now();
      Status s;
      {
        ScopedSpan span(SpanName::kScan, sampled);
        s = ctx->db->Scan(read_options, key, Slice(), kScanLength, &scanned);
      }
      if (window >= 0) {
        c.scan_lat.Add(window, Now() - start);
      }
      ++c.scans;
      if (!s.ok()) {
        c.tally.Fail("scan: " + s.ToString());
      } else if (scanned.size() > kScanLength) {
        c.tally.Fail("scan returned more than its limit");
      } else {
        std::string prev = key.ToString();
        bool first = true;
        for (const auto& [sk, sv] : scanned) {
          DecodedValue d;
          if ((first ? sk < prev : sk <= prev) || LogicalKey(sk, w.key_space) == w.key_space ||
              !DecodeValue(sk, sv, &d)) {
            c.tally.Fail("scan returned a wrong, out-of-order or out-of-range entry");
            break;
          }
          prev = sk;
          first = false;
        }
      }
    }
    c.completed.store(c.puts + c.gets + c.scans, std::memory_order_relaxed);
  }
}

uint64_t CompletedOps(const RunContext& ctx) {
  uint64_t total = 0;
  for (const auto& c : ctx.clients) {
    total += c->completed.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------
// Verification after the timed phase.

struct Verification : Tally {
  // Latencies of the timed reads, one entry per reading thread.
  std::vector<WindowedLatency> get_lats;
  std::vector<WindowedLatency> scan_lats;
  uint64_t live_keys = 0;
  uint64_t reads_start = 0;  // start of the current timed read pass
  // Store counters around the timed probe scans.
  flodb::StoreStats probe_before, probe_after;

  // Starts a timed read pass; returns its deadline.
  uint64_t BeginReads() {
    reads_start = Now();
    return reads_start + static_cast<uint64_t>(kVerifyReadSeconds * 1e9);
  }
  // The window of a read that started at `t` in the current pass.
  int Window(uint64_t t) const {
    const auto w = static_cast<int>(static_cast<double>(t - reads_start) * kWindows /
                                    (kVerifyReadSeconds * 1e9));
    return std::min(w, kWindows - 1);
  }
};

// The value a key must hold: the last acknowledged put of one client, and
// for durable_mix that of the key's owner.
bool ExpectedWriter(const RunContext& ctx, uint64_t k, const DecodedValue& d) {
  if (d.writer == kLoaderWriter) {
    if (d.counter != 0 || !ctx.w->preload) {
      return false;
    }
    for (const auto& c : ctx.clients) {
      if (c->last[k] != 0) {
        return false;
      }
    }
    return true;
  }
  if (d.writer >= ctx.clients.size()) {
    return false;
  }
  if (ctx.w->durable && d.writer != k % kClientThreads) {
    return false;
  }
  return ctx.clients[d.writer]->last[k] == d.counter;
}

// Every key some client (or the loader) wrote: the ones a full scan must
// return.
uint64_t ExpectedLiveKeys(const RunContext& ctx) {
  if (ctx.w->preload) {
    return ctx.w->key_space;
  }
  uint64_t live = 0;
  for (uint64_t k = 0; k < ctx.w->key_space; ++k) {
    for (const auto& c : ctx.clients) {
      if (c->last[k] != 0) {
        ++live;
        break;
      }
    }
  }
  return live;
}

// One streaming scan over the whole store: every entry in order, well
// formed and holding its expected value; counts the live keys.
void VerifyFullScan(const RunContext& ctx, Verification* v) {
  const uint64_t key_space = ctx.w->key_space;
  std::string prev;
  auto it = ctx.db->NewScanIterator(flodb::ReadOptions(), Slice(), Slice());
  for (; it->Valid(); it->Next()) {
    ++v->checked;
    DecodedValue d;
    const uint64_t k = LogicalKey(it->key(), key_space);
    if ((v->live_keys > 0 && it->key().compare(prev) <= 0) || k == key_space ||
        !DecodeValue(it->key(), it->value(), &d) || !ExpectedWriter(ctx, k, d)) {
      v->Fail("verify scan: wrong or stale entry for key " + std::to_string(k));
    }
    prev = it->key().ToString();
    ++v->live_keys;
  }
  if (!it->status().ok()) {
    v->Fail("verify scan: " + it->status().ToString());
  }
  const uint64_t expected = ExpectedLiveKeys(ctx);
  if (v->live_keys != expected) {
    v->Fail("verify scan: " + std::to_string(v->live_keys) + " live keys, expected " +
            std::to_string(expected));
  }
}

// Runs read(t, i, lat, check) for i = 0, 1, ... on kClientThreads
// threads for one timed read pass of kVerifyReadSeconds, then adds their
// latencies to *lats and their checks to *v. Several threads keep one
// thread's placement on a busy core from setting the result.
template <typename Read>
void TimedReads(Verification* v, std::vector<WindowedLatency>* lats, const Read& read) {
  const uint64_t deadline = v->BeginReads();
  std::vector<WindowedLatency> thread_lats(kClientThreads);
  std::vector<Tally> checks(kClientThreads);
  std::vector<std::thread> readers;
  for (int t = 0; t < kClientThreads; ++t) {
    readers.emplace_back([&, t] {
      for (uint64_t i = 0; Now() < deadline; ++i) {
        read(t, i, &thread_lats[static_cast<size_t>(t)], &checks[static_cast<size_t>(t)]);
      }
    });
  }
  for (std::thread& r : readers) {
    r.join();
  }
  for (int t = 0; t < kClientThreads; ++t) {
    v->Add(checks[static_cast<size_t>(t)]);
    lats->push_back(std::move(thread_lats[static_cast<size_t>(t)]));
  }
}

// One checked Scan of kScanLength keys from logical key `first` of a
// preloaded (so dense) store: it must return exactly the next keys,
// holding their expected values. Timed into *lat unless lat is null.
void ProbeScan(const RunContext& ctx, const Verification& v, uint64_t first, WindowedLatency* lat,
               ScanResult* out, Tally* check) {
  const uint64_t key_space = ctx.w->key_space;
  flodb::KeyBuf key_buf;
  const uint64_t start = Now();
  flodb::ReadOptions options;
  options.snapshot_mode = flodb::SnapshotMode::kPiggyback;
  Status s = ctx.db->Scan(options, KeyFor(first, key_space, &key_buf), Slice(), kScanLength, out);
  if (lat != nullptr) {
    lat->Add(v.Window(start), Now() - start);
  }
  ++check->checked;
  if (!s.ok()) {
    check->Fail("probe scan: " + s.ToString());
    return;
  }
  bool ok = out->size() == std::min<uint64_t>(kScanLength, key_space - first);
  for (size_t j = 0; ok && j < out->size(); ++j) {
    const auto& [key, value] = (*out)[j];
    DecodedValue d;
    ok = LogicalKey(key, key_space) == first + j && DecodeValue(key, value, &d) &&
         ExpectedWriter(ctx, first + j, d);
  }
  if (!ok) {
    check->Fail("probe scan from key " + std::to_string(first) + " returned wrong entries");
  }
}

// Probe scans from seed-chosen starts: untimed for kVerifyReadSeconds / 2,
// since the first scans after the flush find the block and table caches
// cold, then a timed pass. They ask for SnapshotMode::kPiggyback, so while
// another probe scan runs they reuse its snapshot whatever the chain
// length, and nearly all of them time the scan pass over the settled
// store alone. Under kAuto every ninth scan is a master (a fresh 1 MB
// Membuffer to allocate and sweep, which swung between runs with the
// machine's memory bandwidth) and others queue behind it, which put the
// median on the edge between the two groups and made it swing by a third.
// The master/piggyback machinery is timed by durable_mix's own scans.
void ProbeScans(const RunContext& ctx, Verification* v) {
  const uint64_t key_space = ctx.w->key_space;
  flodb::Random64 rng(ctx.seed ^ 0x5ca9);
  std::vector<ScanResult> outs(kClientThreads);
  Tally check;
  const uint64_t warm_end = Now() + static_cast<uint64_t>(kVerifyReadSeconds / 2 * 1e9);
  while (Now() < warm_end) {
    ProbeScan(ctx, *v, rng.Uniform(key_space), nullptr, &outs[0], &check);
  }
  v->Add(check);
  const uint64_t salt = rng.Next();
  v->probe_before = ctx.db->GetStats();
  TimedReads(v, &v->scan_lats, [&](int t, uint64_t i, WindowedLatency* lat, Tally* c) {
    const uint64_t first = flodb::MixU64(salt + static_cast<uint64_t>(t) * 0x10000000 + i);
    ProbeScan(ctx, *v, first % key_space, lat, &outs[static_cast<size_t>(t)], c);
  });
  v->probe_after = ctx.db->GetStats();
}

// One checked point read of logical key k; timed into *lat (window of
// the read pass `v` runs) unless lat is null.
void VerifyGet(const RunContext& ctx, const Verification& v, uint64_t k, WindowedLatency* lat,
               std::string* got, Tally* check) {
  flodb::KeyBuf key_buf;
  const Slice key = KeyFor(k, ctx.w->key_space, &key_buf);
  const uint64_t start = Now();
  Status s = ctx.db->Get(flodb::ReadOptions(), key, got);
  if (lat != nullptr) {
    lat->Add(v.Window(start), Now() - start);
  }
  ++check->checked;
  DecodedValue d;
  if (!s.ok()) {
    check->Fail("verify get of key " + std::to_string(k) + ": " + s.ToString());
  } else if (!DecodeValue(key, *got, &d) || !ExpectedWriter(ctx, k, d)) {
    check->Fail("verify get: wrong or stale value for key " + std::to_string(k));
  }
}

// Point reads of every written key (every key when preloaded) in a
// seed-dependent order, then a timed pass over the first kTimedGetKeys of
// them. The timed set is the same size on every run, so whether it fits
// the block cache does not hinge on how many keys the timed phase wrote.
void VerifyGets(const RunContext& ctx, Verification* v) {
  const uint64_t key_space = ctx.w->key_space;
  std::vector<uint64_t> keys;
  const uint64_t offset = flodb::MixU64(ctx.seed + 1) % key_space;
  for (uint64_t i = 0; i < key_space; ++i) {
    const uint64_t k = (i * 2654435761u + offset) % key_space;
    if (ctx.w->preload || ctx.clients[k % kClientThreads]->last[k] != 0) {
      keys.push_back(k);
    }
  }
  std::vector<std::string> values(kClientThreads);
  Tally check;
  for (const uint64_t k : keys) {
    VerifyGet(ctx, *v, k, nullptr, &values[0], &check);
  }
  v->Add(check);
  keys.resize(std::min<size_t>(keys.size(), kTimedGetKeys));
  if (keys.empty()) {
    return;
  }
  TimedReads(v, &v->get_lats, [&](int t, uint64_t i, WindowedLatency* lat, Tally* c) {
    const auto thread = static_cast<size_t>(t);
    const uint64_t k = keys[(thread * keys.size() / kClientThreads + i) % keys.size()];
    VerifyGet(ctx, *v, k, lat, &values[thread], c);
  });
}

// ---------------------------------------------------------------------
// Metrics.

double Delta(uint64_t after, uint64_t before) {
  return static_cast<double>(after - before);
}

// Peak resident set of the whole run (the record line; see HeapPeak).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Per-layer numbers derived from the recorded spans.
struct SpanTotals {
  double put_ns = 0, get_ns = 0;
  double put_child_ns = 0, get_child_ns = 0;
  double put_slow_ns = 0;
  double put_wal_sync_ns = 0;
  double sst_write_ns = 0;
};

SpanTotals SumSpans(const std::vector<Span>& spans) {
  SpanTotals t;
  std::unordered_map<uint64_t, SpanName> ops;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    switch (s.name) {
      case SpanName::kPut:
        t.put_ns += d;
        if (s.end_ns - s.start_ns > kSlowPutNanos) {
          t.put_slow_ns += d;
        }
        ops.emplace(s.id, s.name);
        break;
      case SpanName::kGet:
        t.get_ns += d;
        ops.emplace(s.id, s.name);
        break;
      case SpanName::kScan:
        ops.emplace(s.id, s.name);
        break;
      case SpanName::kSstAppend:
      case SpanName::kSstSync:
      case SpanName::kSstClose:
        t.sst_write_ns += d;
        break;
      default:
        break;
    }
  }
  for (const Span& s : spans) {
    if (s.parent == 0) {
      continue;
    }
    const auto it = ops.find(s.parent);
    if (it == ops.end()) {
      continue;
    }
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (it->second == SpanName::kPut) {
      t.put_child_ns += d;
      if (s.name == SpanName::kWalSync) {
        t.put_wal_sync_ns += d;
      }
    } else if (it->second == SpanName::kGet) {
      t.get_child_ns += d;
    }
  }
  return t;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(ch);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The processor's brand string, from cpuid.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string out(brand);
  out.erase(0, out.find_first_not_of(' '));
  return out;
#else
  return "unknown";
#endif
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// What the timed phase measured.
struct Timed {
  std::vector<double> window_ops_per_s;
  double seconds = 0;
  double traced_s = 0, untraced_s = 0;
  uint64_t traced_ops = 0, untraced_ops = 0;
  int l0_max = 0;  // sampled in the traced run only
  flodb::StoreStats stats_before, stats;
  IoSnapshot io;  // Env traffic during the phase
};

// Starts the clients, lets them warm up, then measures kWindows windows;
// the traced run traces every other window. Stops and joins the clients.
Timed RunTimedPhase(const Args& args, RunContext* ctx, Instance* inst) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back(ClientLoop, ctx, t);
  }
  ctx->go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(ctx->w->warmup_s));

  Timed out;
  out.stats_before = inst->db->GetStats();
  const IoSnapshot io_before = inst->env->Snapshot();
  const uint64_t start = Now();
  for (int window = 0; window < kWindows; ++window) {
    const bool traced = args.trace && window % 2 == 1;
    Tracer::SetEnabled(traced);
    const uint64_t window_start = Now();
    const uint64_t window_ops = CompletedOps(*ctx);
    ctx->window.store(window, std::memory_order_relaxed);
    const uint64_t window_end =
        start + static_cast<uint64_t>(args.seconds * 1e9 * (window + 1) / kWindows);
    while (Now() < window_end) {
      if (args.trace) {
        const flodb::StoreStats s = inst->db->GetStats();
        if (!s.disk.files_per_level.empty()) {
          out.l0_max = std::max(out.l0_max, s.disk.files_per_level[0]);
        }
      }
      const uint64_t now = Now();
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<uint64_t>(window_end - std::min(now, window_end), 50'000'000)));
    }
    const double window_s = static_cast<double>(Now() - window_start) * 1e-9;
    const uint64_t ops = CompletedOps(*ctx) - window_ops;
    out.window_ops_per_s.push_back(static_cast<double>(ops) / window_s);
    (traced ? out.traced_s : out.untraced_s) += window_s;
    (traced ? out.traced_ops : out.untraced_ops) += ops;
  }
  ctx->window.store(-1, std::memory_order_relaxed);
  Tracer::SetEnabled(false);
  out.seconds = static_cast<double>(Now() - start) * 1e-9;
  out.stats = inst->db->GetStats();
  out.io = inst->env->Snapshot().Minus(io_before);
  ctx->stop.store(true);
  for (std::thread& th : threads) {
    th.join();
  }
  return out;
}

// What the checks after the timed phase measured.
struct Checked {
  Verification v;
  double reopen_s = 0;
  double resident_bytes = 0;  // in the Env after the final flush
  // Through the Env from open to the final flush, less the compactions
  // that flush set off.
  double appended_bytes = 0;
};

// For durable_mix, a power cut and recovery first. Then flushes the store
// and compacts it fully, so the checks read one shape on every run rather
// than however many L0 files the timed phase happened to leave; then
// checks every key. The store's files are then measured, and a store that
// was not crashed is reopened (timed) to measure restart.
//
// write_amp counts the final flush but not the compactions it sets off:
// whether that flush tips L0 over its compaction trigger depends on how
// many Memtables the timed phase filled, and on durable_mix it moved
// write_amp between 2.2 and 3.8 among runs of the same code.
bool CheckStore(RunContext* ctx, Instance* inst, Checked* out) {
  const WorkloadDef& w = *ctx->w;
  Status s;
  if (w.durable) {
    // Syncs fail during teardown, then every byte past the last real
    // fsync is dropped. Every acknowledged sync=true put must survive.
    inst->fault->FailSyncs(true);
    inst->db.reset();
    inst->fault->FailSyncs(false);
    s = inst->fault->DropUnsyncedFileData();
    const uint64_t reopen_start = Now();
    if (s.ok()) {
      s = FloDB::Open(inst->options, &inst->db);
    }
    out->reopen_s = static_cast<double>(Now() - reopen_start) * 1e-9;
    if (!s.ok()) {
      std::fprintf(stderr, "crash recovery: %s\n", s.ToString().c_str());
      return false;
    }
    ctx->db = inst->db.get();
  }
  const uint64_t compacted_before = inst->db->GetStats().disk.bytes_compacted_out;
  s = inst->db->FlushAll();
  const uint64_t settle_compacted =
      inst->db->GetStats().disk.bytes_compacted_out - compacted_before;
  out->appended_bytes =
      static_cast<double>(inst->env->Snapshot().TotalAppendBytes() - settle_compacted);
  if (s.ok()) {
    s = inst->db->CompactRange(Slice(), Slice());
  }
  if (!s.ok()) {
    std::fprintf(stderr, "final flush: %s\n", s.ToString().c_str());
    return false;
  }
  VerifyFullScan(*ctx, &out->v);
  if (w.preload) {
    ProbeScans(*ctx, &out->v);
  }
  if (w.get_share == 0) {
    VerifyGets(*ctx, &out->v);
  }
  out->resident_bytes = static_cast<double>(inst->mem->TotalBytes());
  if (!w.durable) {
    inst->db.reset();
    const uint64_t reopen_start = Now();
    s = FloDB::Open(inst->options, &inst->db);
    out->reopen_s = static_cast<double>(Now() - reopen_start) * 1e-9;
    if (!s.ok()) {
      std::fprintf(stderr, "reopen: %s\n", s.ToString().c_str());
      return false;
    }
  }
  return true;
}

// Latencies per operation type. A workload without gets (scans) in its
// mix reports those of the checks' timed point reads (probe scans).
struct Latencies {
  LatencySummary put, get, scan;
  bool get_timed = false, scan_timed = false;
};

Latencies SummarizeLatencies(const RunContext& ctx, const Verification& v) {
  Latencies out;
  LatencySummary gets, scans, verify_gets, verify_scans;
  for (const auto& c : ctx.clients) {
    out.put.Merge(c->put_lat);
    gets.Merge(c->get_lat);
    scans.Merge(c->scan_lat);
  }
  for (const WindowedLatency& l : v.get_lats) {
    verify_gets.Merge(l);
  }
  for (const WindowedLatency& l : v.scan_lats) {
    verify_scans.Merge(l);
  }
  out.get_timed = gets.ops() > 0;
  out.scan_timed = scans.ops() > 0;
  out.get = std::move(out.get_timed ? gets : verify_gets);
  out.scan = std::move(out.scan_timed ? scans : verify_scans);
  out.put.Finish();
  out.get.Finish();
  out.scan.Finish();
  return out;
}

Metrics LayerMetrics(const Timed& t, const Latencies& lat, const SpanTotals& sp,
                     double reopen_s) {
  const flodb::StoreStats& a = t.stats;
  const flodb::StoreStats& b = t.stats_before;
  const double d_puts = Delta(a.puts, b.puts);
  const double d_gets = Delta(a.gets, b.gets);
  const double d_scans = Delta(a.scans, b.scans);
  const double d_mb = Delta(a.membuffer_adds, b.membuffer_adds);
  const double d_direct = Delta(a.memtable_direct_adds, b.memtable_direct_adds);
  const IoCounts& wal = t.io.of(FileKind::kWal);
  const IoCounts& sst = t.io.of(FileKind::kSst);
  const IoCounts& manifest = t.io.of(FileKind::kManifest);
  return {
      {"mem.membuffer_share", Ratio(d_mb, d_mb + d_direct), "share"},
      {"mem.drained_per_put", Ratio(Delta(a.drained_entries, b.drained_entries), d_puts),
       "entries/put"},
      {"mem.rotations_per_s", Delta(a.membuffer_rotations, b.membuffer_rotations) / t.seconds,
       "1/s"},
      {"core.put.slow_share", Ratio(sp.put_slow_ns, sp.put_ns), "share"},
      {"core.get.self_share", Ratio(sp.get_ns - sp.get_child_ns, sp.get_ns), "share"},
      {"core.put.self_share", Ratio(sp.put_ns - sp.put_child_ns, sp.put_ns), "share"},
      {"core.put.count", static_cast<double>(lat.put.ops()), "count"},
      {"core.get.count", lat.get_timed ? static_cast<double>(lat.get.ops()) : 0.0, "count"},
      {"core.scan.count", lat.scan_timed ? static_cast<double>(lat.scan.ops()) : 0.0, "count"},
      {"scan.master_share", Ratio(Delta(a.master_scans, b.master_scans), d_scans), "share"},
      {"scan.piggyback_share", Ratio(Delta(a.piggyback_scans, b.piggyback_scans), d_scans),
       "share"},
      {"scan.restarts_per_scan", Ratio(Delta(a.scan_restarts, b.scan_restarts), d_scans),
       "restarts/scan"},
      {"scan.fallback_share", Ratio(Delta(a.fallback_scans, b.fallback_scans), d_scans), "share"},
      {"wal.writers_per_group",
       Ratio(Delta(a.group_commit_writers, b.group_commit_writers),
             Delta(a.group_commit_groups, b.group_commit_groups)),
       "writers/group"},
      {"wal.syncs_per_put", Ratio(Delta(a.wal_syncs, b.wal_syncs), d_puts), "syncs/put"},
      {"env.wal.append_bytes_per_put", Ratio(static_cast<double>(wal.append_bytes), d_puts),
       "B/put"},
      {"env.wal.sync_share", Ratio(sp.put_wal_sync_ns, sp.put_ns), "share"},
      {"disk.block_cache_hit_rate",
       Ratio(Delta(a.disk.block_cache_hits, b.disk.block_cache_hits),
             Delta(a.disk.block_cache_hits + a.disk.block_cache_misses,
                   b.disk.block_cache_hits + b.disk.block_cache_misses)),
       "share"},
      {"disk.table_cache_hit_rate",
       Ratio(Delta(a.disk.table_cache_hits, b.disk.table_cache_hits),
             Delta(a.disk.table_cache_hits + a.disk.table_cache_misses,
                   b.disk.table_cache_hits + b.disk.table_cache_misses)),
       "share"},
      {"disk.bloom_saved_per_get",
       Ratio(Delta(a.disk.seeks_saved_by_bloom, b.disk.seeks_saved_by_bloom), d_gets),
       "seeks/get"},
      {"env.sst.reads_per_get", Ratio(static_cast<double>(sst.client_reads), d_gets),
       "reads/get"},
      {"env.sst.read_bytes_per_get", Ratio(static_cast<double>(sst.client_read_bytes), d_gets),
       "B/get"},
      {"env.table_opens", static_cast<double>(sst.random_opens), "count"},
      {"disk.flushes", Delta(a.disk.flushes, b.disk.flushes), "count"},
      {"disk.compactions", Delta(a.disk.compactions, b.disk.compactions), "count"},
      {"disk.compacted_bytes_per_user_byte",
       Ratio(Delta(a.disk.bytes_compacted_out, b.disk.bytes_compacted_out),
             d_puts * kUserBytesPerEntry),
       "x"},
      {"disk.l0_files_max", static_cast<double>(t.l0_max), "count"},
      {"env.sst.write_busy_s", sp.sst_write_ns * 1e-9, "s"},
      {"env.manifest.sync_calls", static_cast<double>(manifest.syncs), "count"},
      {"recovery.reopen_s", reopen_s, "s"},
      {"trace.overhead",
       1.0 - Ratio(Ratio(static_cast<double>(t.traced_ops), t.traced_s),
                   Ratio(static_cast<double>(t.untraced_ops), t.untraced_s)),
       "share"},
  };
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

// What the timed probe scans saw (preloaded workloads): the store's
// shape and how many of the scans were masters.
std::string ProbeRecord(const Verification& v) {
  const flodb::StoreStats& a = v.probe_after;
  const flodb::StoreStats& b = v.probe_before;
  std::vector<double> levels(a.disk.files_per_level.begin(), a.disk.files_per_level.end());
  return "{\"files_per_level\": " + JsonArray(levels) +
         ", \"scans\": " + JsonNumber(Delta(a.scans, b.scans)) +
         ", \"master_scans\": " + JsonNumber(Delta(a.master_scans, b.master_scans)) + "}";
}

// The run record: machine, build, inputs, sample counts and the raw
// numbers behind the medians. The put p99 is recorded here rather than
// reported as a metric: on read_zipf it ranged from 2 to 15 us between
// runs, with whether a few client threads were descheduled mid-put.
std::string RecordLine(const Args& args, const WorkloadDef& w, const Timed& t,
                       const Latencies& lat, const std::vector<double>& setup_times,
                       const Checked& c, uint64_t attempted, uint64_t failed) {
  const auto samples = [](const char* op, const LatencySummary& l, bool timed) {
    return std::string("\"") + op + "\": {\"ops\": " + std::to_string(l.ops()) +
           ", \"samples\": " + std::to_string(l.samples()) + ", \"windows\": " +
           std::to_string(kWindows) + ", \"source\": \"" + (timed ? "timed" : "verify") + "\"}";
  };
  return "{\"machine\": {\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + JsonString(CpuModel()) + ", \"compiler\": " +
         JsonString(PERFBENCH_COMPILER) + ", \"build_type\": " +
         JsonString(PERFBENCH_BUILD_TYPE) + ", \"commit\": " + JsonString(args.commit) +
         "}, \"env\": " +
         JsonString(w.durable ? "BenchEnv(FaultInjectionEnv(MemEnv)), 100 us spun fsync"
                              : "BenchEnv(MemEnv)") +
         ", \"workload\": " + JsonString(w.name) + ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"client_threads\": " + std::to_string(kClientThreads) +
         ", \"seconds\": " + JsonNumber(t.seconds) + ", \"latency_samples\": {" +
         samples("put", lat.put, true) + ", " + samples("get", lat.get, lat.get_timed) + ", " +
         samples("scan", lat.scan, lat.scan_timed) + "}, \"put_p99_us\": " +
         JsonNumber(lat.put.Micros(0.99)) + ", \"setup_s\": " +
         JsonArray(setup_times) + ", \"window_ops_per_s\": " + JsonArray(t.window_ops_per_s) +
         ", \"live_keys\": " + std::to_string(c.v.live_keys) + ", \"failed_share\": " +
         JsonNumber(Ratio(static_cast<double>(failed), static_cast<double>(attempted))) +
         ", \"spans_dropped\": " + std::to_string(Tracer::Dropped()) +
         ", \"peak_rss_mb\": " + JsonNumber(PeakRssMb()) +
         ", \"scan_quartiles_us\": " +
         JsonArray({lat.scan.Micros(0.25), lat.scan.Micros(0.50), lat.scan.Micros(0.75)}) +
         ", \"probe_scans\": " + ProbeRecord(c.v) + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

int Run(const Args& args) {
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload == def.name) {
      w = &def;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Peak memory of set-up and workload; the checks come after.
  HeapPeak heap_peak;

  // Set up several times; keep the last store for the timed phase.
  Instance inst;
  std::vector<double> setup_times;
  for (int rep = 0; rep < w->setup_reps; ++rep) {
    inst.Close();
    std::string error;
    const double t = SetUp(*w, args.seed, &inst, &error);
    if (t < 0) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    setup_times.push_back(t);
  }

  RunContext ctx;
  ctx.w = w;
  ctx.seed = args.seed;
  ctx.db = inst.db.get();
  if (w->zipf) {
    ctx.zipf = std::make_unique<flodb::bench::ZipfianGenerator>(w->key_space, kZipfTheta);
  }
  for (int t = 0; t < kClientThreads; ++t) {
    ctx.clients.push_back(std::make_unique<Client>());
    ctx.clients.back()->last.assign(w->key_space, 0);
  }
  const Timed timed = RunTimedPhase(args, &ctx, &inst);
  const double peak_heap_mb = heap_peak.StopMb();

  Checked checked;
  if (!CheckStore(&ctx, &inst, &checked)) {
    return 1;
  }
  inst.Close();

  Tally total;
  uint64_t acked_puts = 0;
  for (const auto& c : ctx.clients) {
    total.checked += c->puts + c->gets + c->scans;
    total.Add(c->tally);
    acked_puts += c->acked_puts;
  }
  total.Add(checked.v);
  const uint64_t attempted = total.checked;
  const uint64_t failed = total.failed;
  const bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "check failed: %s\n", total.first_error.c_str());
  }

  const Latencies lat = SummarizeLatencies(ctx, checked.v);
  Metrics metrics;
  if (!args.trace) {
    const double user_bytes =
        static_cast<double>((w->preload ? w->key_space : 0) + acked_puts) * kUserBytesPerEntry;
    const double live_bytes = static_cast<double>(checked.v.live_keys) * kUserBytesPerEntry;
    metrics = {
        {"ops_per_s", Median(timed.window_ops_per_s), "1/s"},
        {"put_p50_us", lat.put.Micros(0.50), "us"},
        {"get_p50_us", lat.get.Micros(0.50), "us"},
        {"get_p99_us", lat.get.Micros(0.99), "us"},
        {"scan_p50_us", lat.scan.Micros(0.50), "us"},
        {"setup_s", Median(setup_times), "s"},
        {"write_amp", Ratio(checked.appended_bytes, user_bytes), "x"},
        {"space_amp", Ratio(checked.resident_bytes, live_bytes), "x"},
        {"peak_heap_mb", peak_heap_mb, "MB"},
    };
  } else {
    const std::vector<Span> spans = Tracer::Collect();
    metrics = LayerMetrics(timed, lat, SumSpans(spans), checked.reopen_s);
    std::string error;
    if (!RunLadder(args.seed, &metrics, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const std::string path = args.out_dir + "/trace-" + w->name + ".csv";
    if (!Tracer::WriteCsv(spans, path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::printf("%s\n", RecordLine(args, *w, timed, lat, setup_times, checked, attempted, failed)
                          .c_str());
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc adapts its mmap and trim thresholds to the sizes freed so far,
  // so the same allocation (a Membuffer, a Memtable arena block) may fault
  // in fresh pages in one run and reuse heap in the next. Fixing both at
  // the ceiling glibc adapts toward removes that run-to-run difference.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload update_hot|read_zipf|durable_mix --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
