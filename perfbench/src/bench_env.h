// BenchEnv: an Env decorator owned by the benchmark. It counts calls and
// bytes per file kind on every run (write_amp and the env.* metrics need
// them), opens a trace span around each call while tracing is on, and can
// give Sync a fixed cost, standing in for a device's fsync.

#ifndef PERFBENCH_BENCH_ENV_H_
#define PERFBENCH_BENCH_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flodb/disk/env.h"

namespace perfbench {

enum class FileKind : uint8_t { kWal, kSst, kManifest, kOther, kCount };

FileKind KindOf(const std::string& fname);

// Marks the calling thread as a client thread: its reads also count as
// client reads, which leaves out the reads of flushes and compactions.
void MarkClientThread();

// Plain copy of the counters of one file kind.
struct IoCounts {
  uint64_t appends = 0;
  uint64_t append_bytes = 0;
  uint64_t syncs = 0;
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t client_reads = 0;
  uint64_t client_read_bytes = 0;
  uint64_t random_opens = 0;
};

struct IoSnapshot {
  std::array<IoCounts, static_cast<size_t>(FileKind::kCount)> kind;

  const IoCounts& of(FileKind k) const { return kind[static_cast<size_t>(k)]; }
  uint64_t TotalAppendBytes() const;
  IoSnapshot Minus(const IoSnapshot& earlier) const;
};

class BenchEnv final : public flodb::Env {
 public:
  // Does not take ownership of base. Every Sync busy-waits sync_delay_ns
  // first: spinning keeps the delay exact, where a sleep's wake-up on a
  // virtual machine added 0.1-2 ms of run-to-run noise to sync latency.
  explicit BenchEnv(flodb::Env* base, uint64_t sync_delay_ns = 0)
      : base_(base), sync_delay_ns_(sync_delay_ns) {}

  flodb::Status NewSequentialFile(const std::string& fname,
                                  std::unique_ptr<flodb::SequentialFile>* result) override;
  flodb::Status NewRandomAccessFile(const std::string& fname,
                                    std::unique_ptr<flodb::RandomAccessFile>* result) override;
  flodb::Status NewWritableFile(const std::string& fname,
                                std::unique_ptr<flodb::WritableFile>* result) override;

  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  flodb::Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  flodb::Status RemoveFile(const std::string& fname) override { return base_->RemoveFile(fname); }
  flodb::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  flodb::Status GetFileSize(const std::string& fname, uint64_t* file_size) override {
    return base_->GetFileSize(fname, file_size);
  }
  flodb::Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  IoSnapshot Snapshot() const;

  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> append_bytes{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> client_reads{0};
    std::atomic<uint64_t> client_read_bytes{0};
    std::atomic<uint64_t> random_opens{0};
  };

 private:
  Counters& For(FileKind k) { return counters_[static_cast<size_t>(k)]; }

  flodb::Env* const base_;
  const uint64_t sync_delay_ns_;
  std::array<Counters, static_cast<size_t>(FileKind::kCount)> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_ENV_H_
