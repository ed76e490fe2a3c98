// In-memory span recorder for the traced run.
//
// A span is one call into a layer: its name, start and end on the
// monotonic clock, the recording thread, and the span that caused it
// (the span open on the same thread when it started; 0 for a root).
// Client threads open spans around sampled KVStore calls; BenchEnv opens
// child spans around Env calls, which on the store's background threads
// become roots named by file kind. Spans stay in per-thread buffers until
// the run ends, and are read only after every recording thread stopped.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kPut,
  kGet,
  kScan,
  // Env calls, one per (file kind, call).
  kWalAppend,
  kWalSync,
  kSstAppend,
  kSstSync,
  kSstClose,
  kSstRead,
  kSstOpen,
  kManifestAppend,
  kManifestSync,
  kOtherIo,
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
  SpanName name = SpanName::kPut;
};

class Tracer {
 public:
  // Spans are recorded only while enabled.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Every span recorded so far, across threads. REQUIRES: no thread is
  // recording (all client threads joined, every store destroyed).
  static std::vector<Span> Collect();

  // Writes spans as CSV (id,parent,name,thread,start_ns,end_ns).
  static bool WriteCsv(const std::vector<Span>& spans, const std::string& path);

  // Spans dropped because a thread's buffer was full.
  static uint64_t Dropped();

 private:
  static std::atomic<bool> enabled_;
};

// Records one span for its lifetime when tracing is enabled (and the call
// is sampled); nests via a thread-local current-span id.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, bool sampled = true) {
    if (sampled && Tracer::Enabled()) {
      Begin(name);
    }
  }
  ~ScopedSpan() {
    if (active_) {
      End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(SpanName name);
  void End();

  bool active_ = false;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
