// Shared pieces of the FloDB benchmark: the self-checking value format,
// the key mapping, latency sampling and the metric table printed as JSON.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "flodb/bench_util/workload.h"
#include "flodb/common/clock.h"
#include "flodb/common/hash.h"
#include "flodb/common/key_codec.h"
#include "flodb/common/slice.h"

namespace perfbench {

inline constexpr size_t kValueBytes = 100;
inline constexpr size_t kUserBytesPerEntry = flodb::kEncodedKeyBytes + kValueBytes;
inline constexpr int kClientThreads = 3;
inline constexpr uint8_t kLoaderWriter = 0xff;

// The 8-byte big-endian store key of logical key `k` in [0, key_space).
inline flodb::Slice KeyFor(uint64_t k, uint64_t key_space, flodb::KeyBuf* buf) {
  return buf->Set(flodb::bench::SpreadKey(k, key_space));
}

// Value layout (kValueBytes): [0,8) the store key, [8] the writer (client
// thread or kLoaderWriter), [9,13) the writer's counter, then a fill
// derived from all three. Every byte is checkable from the value alone.
inline void EncodeValue(const flodb::Slice& key, uint8_t writer, uint32_t counter, char* out) {
  std::memcpy(out, key.data(), flodb::kEncodedKeyBytes);
  out[8] = static_cast<char>(writer);
  std::memcpy(out + 9, &counter, sizeof(counter));
  uint64_t word = flodb::MixU64(flodb::DecodeKey(key) ^ (uint64_t{writer} << 56) ^ counter);
  for (size_t i = 13; i < kValueBytes; i += 8) {
    std::memcpy(out + i, &word, std::min<size_t>(8, kValueBytes - i));
    word = flodb::MixU64(word);
  }
}

struct DecodedValue {
  uint8_t writer = 0;
  uint32_t counter = 0;
};

// True when `value` is a well-formed value written for `key`.
inline bool DecodeValue(const flodb::Slice& key, const flodb::Slice& value, DecodedValue* out) {
  if (value.size() != kValueBytes || key.size() != flodb::kEncodedKeyBytes ||
      std::memcmp(value.data(), key.data(), flodb::kEncodedKeyBytes) != 0) {
    return false;
  }
  out->writer = static_cast<uint8_t>(value[8]);
  std::memcpy(&out->counter, value.data() + 9, sizeof(out->counter));
  char expect[kValueBytes];
  EncodeValue(key, out->writer, out->counter, expect);
  return std::memcmp(expect, value.data(), kValueBytes) == 0;
}

// Measurements are split into this many equal windows; a run reports the
// median over windows, so a short burst of noise moves one window only.
inline constexpr int kWindows = 10;

inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median of v (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// A systematic sample of per-operation latencies: keeps every stride-th
// observation and doubles the stride (dropping every other sample) when
// full, so memory stays bounded however many operations a run makes.
class LatencySample {
 public:
  static constexpr size_t kCapacity = 1u << 16;

  void Add(uint64_t nanos) {
    if (seen_++ % stride_ != 0) {
      return;
    }
    if (samples_.size() == kCapacity) {
      for (size_t i = 0; i < kCapacity / 2; ++i) {
        samples_[i] = samples_[2 * i];
      }
      samples_.resize(kCapacity / 2);
      stride_ *= 2;
      return;
    }
    if (samples_.empty()) {
      samples_.reserve(kCapacity);
    }
    samples_.push_back(static_cast<uint32_t>(std::min<uint64_t>(nanos, UINT32_MAX)));
  }

  uint64_t seen() const { return seen_; }
  const std::vector<uint32_t>& samples() const { return samples_; }

 private:
  std::vector<uint32_t> samples_;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

// Latency samples of one operation type, one sample per window.
struct WindowedLatency {
  std::array<LatencySample, kWindows> window;

  void Add(int w, uint64_t nanos) { window[static_cast<size_t>(w)].Add(nanos); }
};

// One operation type's latencies merged across threads.
class LatencySummary {
 public:
  void Merge(const WindowedLatency& l) {
    for (size_t w = 0; w < kWindows; ++w) {
      const LatencySample& s = l.window[w];
      sorted_[w].insert(sorted_[w].end(), s.samples().begin(), s.samples().end());
      ops_ += s.seen();
    }
  }

  void Finish() {
    for (auto& w : sorted_) {
      std::sort(w.begin(), w.end());
    }
  }

  // Median over the windows that have samples of each window's
  // nearest-rank percentile p, in microseconds (0 when there are none).
  double Micros(double p) const {
    std::vector<double> per_window;
    for (const auto& w : sorted_) {
      if (!w.empty()) {
        const size_t rank = static_cast<size_t>(p * static_cast<double>(w.size() - 1) + 0.5);
        per_window.push_back(static_cast<double>(w[rank]) / 1000.0);
      }
    }
    return Median(per_window);
  }

  uint64_t ops() const { return ops_; }
  size_t samples() const {
    size_t n = 0;
    for (const auto& w : sorted_) {
      n += w.size();
    }
    return n;
  }

 private:
  std::array<std::vector<uint32_t>, kWindows> sorted_;
  uint64_t ops_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

// Nanoseconds on the monotonic clock every span and latency uses.
inline uint64_t Now() { return flodb::NowNanos(); }

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
