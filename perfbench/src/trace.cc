#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "bench.h"

namespace perfbench {

namespace {

// Bounds the memory a traced run spends on spans (40 B each).
constexpr size_t kMaxSpansPerThread = 2u << 20;

struct ThreadBuffer {
  uint32_t index = 0;
  uint64_t next_id = 1;
  uint64_t current = 0;  // open span on this thread (0: none)
  uint64_t dropped = 0;
  std::vector<Span> spans;
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> registry;

// Buffers are owned by the registry so spans outlive the store's
// background threads that recorded them.
ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = registry.back().get();
    buffer->index = static_cast<uint32_t>(registry.size());
  }
  return *buffer;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* SpanNameString(SpanName name) {
  // In SpanName order.
  static constexpr const char* kNames[] = {
      "kv.put",
      "kv.get",
      "kv.scan",
      "env.wal.append",
      "env.wal.sync",
      "env.sst.append",
      "env.sst.sync",
      "env.sst.close",
      "env.sst.read",
      "env.sst.open",
      "env.manifest.append",
      "env.manifest.sync",
      "env.other",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

void ScopedSpan::Begin(SpanName name) {
  ThreadBuffer& local = Local();
  active_ = true;
  span_.name = name;
  span_.thread = local.index;
  span_.id = (uint64_t{local.index} << 40) | local.next_id++;
  span_.parent = local.current;
  local.current = span_.id;
  span_.start_ns = Now();
}

void ScopedSpan::End() {
  span_.end_ns = Now();
  ThreadBuffer& local = Local();
  local.current = span_.parent;
  if (local.spans.size() < kMaxSpansPerThread) {
    local.spans.push_back(span_);
  } else {
    ++local.dropped;
  }
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::vector<Span> all;
  for (const auto& buffer : registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

uint64_t Tracer::Dropped() {
  std::lock_guard<std::mutex> lock(registry_mu);
  uint64_t dropped = 0;
  for (const auto& buffer : registry) {
    dropped += buffer->dropped;
  }
  return dropped;
}

bool Tracer::WriteCsv(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,parent,name,thread,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%s,%u,%llu,%llu\n", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), SpanNameString(s.name), s.thread,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
