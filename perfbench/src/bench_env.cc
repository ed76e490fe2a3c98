#include "bench_env.h"

#include "bench.h"
#include "trace.h"

namespace perfbench {

using flodb::Slice;
using flodb::Status;

namespace {

thread_local bool client_thread = false;

void CountRead(BenchEnv::Counters* counters, size_t bytes) {
  counters->reads.fetch_add(1, std::memory_order_relaxed);
  counters->read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (client_thread) {
    counters->client_reads.fetch_add(1, std::memory_order_relaxed);
    counters->client_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string tail(suffix);
  return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

SpanName AppendSpan(FileKind k) {
  switch (k) {
    case FileKind::kWal:
      return SpanName::kWalAppend;
    case FileKind::kSst:
      return SpanName::kSstAppend;
    case FileKind::kManifest:
      return SpanName::kManifestAppend;
    default:
      return SpanName::kOtherIo;
  }
}

SpanName SyncSpan(FileKind k) {
  switch (k) {
    case FileKind::kWal:
      return SpanName::kWalSync;
    case FileKind::kSst:
      return SpanName::kSstSync;
    case FileKind::kManifest:
      return SpanName::kManifestSync;
    default:
      return SpanName::kOtherIo;
  }
}

class CountingWritableFile final : public flodb::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<flodb::WritableFile> base, FileKind kind,
                       BenchEnv::Counters* counters, uint64_t sync_delay_ns)
      : base_(std::move(base)),
        kind_(kind),
        counters_(counters),
        sync_delay_ns_(sync_delay_ns) {}

  Status Append(const Slice& data) override {
    counters_->appends.fetch_add(1, std::memory_order_relaxed);
    counters_->append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    ScopedSpan span(AppendSpan(kind_));
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(SyncSpan(kind_));
    for (const uint64_t start = Now(); Now() - start < sync_delay_ns_;) {
    }
    return base_->Sync();
  }
  Status Close() override {
    ScopedSpan span(kind_ == FileKind::kSst ? SpanName::kSstClose : SpanName::kOtherIo);
    return base_->Close();
  }

 private:
  std::unique_ptr<flodb::WritableFile> base_;
  const FileKind kind_;
  BenchEnv::Counters* const counters_;
  const uint64_t sync_delay_ns_;
};

class CountingRandomAccessFile final : public flodb::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<flodb::RandomAccessFile> base, FileKind kind,
                           BenchEnv::Counters* counters)
      : base_(std::move(base)), kind_(kind), counters_(counters) {}

  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    ScopedSpan span(kind_ == FileKind::kSst ? SpanName::kSstRead : SpanName::kOtherIo);
    Status s = base_->Read(offset, n, result, scratch);
    CountRead(counters_, result->size());
    return s;
  }

 private:
  std::unique_ptr<flodb::RandomAccessFile> base_;
  const FileKind kind_;
  BenchEnv::Counters* const counters_;
};

class CountingSequentialFile final : public flodb::SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<flodb::SequentialFile> base,
                         BenchEnv::Counters* counters)
      : base_(std::move(base)), counters_(counters) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ScopedSpan span(SpanName::kOtherIo);
    Status s = base_->Read(n, result, scratch);
    CountRead(counters_, result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<flodb::SequentialFile> base_;
  BenchEnv::Counters* const counters_;
};

}  // namespace

void MarkClientThread() { client_thread = true; }

FileKind KindOf(const std::string& fname) {
  if (EndsWith(fname, ".sst")) {
    return FileKind::kSst;
  }
  if (EndsWith(fname, ".log")) {
    return FileKind::kWal;
  }
  if (fname.find("MANIFEST") != std::string::npos) {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

uint64_t IoSnapshot::TotalAppendBytes() const {
  uint64_t total = 0;
  for (const IoCounts& c : kind) {
    total += c.append_bytes;
  }
  return total;
}

IoSnapshot IoSnapshot::Minus(const IoSnapshot& earlier) const {
  IoSnapshot out;
  for (size_t i = 0; i < kind.size(); ++i) {
    const IoCounts& a = kind[i];
    const IoCounts& b = earlier.kind[i];
    out.kind[i] = IoCounts{a.appends - b.appends,
                           a.append_bytes - b.append_bytes,
                           a.syncs - b.syncs,
                           a.reads - b.reads,
                           a.read_bytes - b.read_bytes,
                           a.client_reads - b.client_reads,
                           a.client_read_bytes - b.client_read_bytes,
                           a.random_opens - b.random_opens};
  }
  return out;
}

Status BenchEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<flodb::SequentialFile>* result) {
  std::unique_ptr<flodb::SequentialFile> file;
  Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<CountingSequentialFile>(std::move(file), &For(KindOf(fname)));
  }
  return s;
}

Status BenchEnv::NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<flodb::RandomAccessFile>* result) {
  const FileKind kind = KindOf(fname);
  For(kind).random_opens.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<flodb::RandomAccessFile> file;
  Status s;
  {
    ScopedSpan span(kind == FileKind::kSst ? SpanName::kSstOpen : SpanName::kOtherIo);
    s = base_->NewRandomAccessFile(fname, &file);
  }
  if (s.ok()) {
    *result = std::make_unique<CountingRandomAccessFile>(std::move(file), kind, &For(kind));
  }
  return s;
}

Status BenchEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<flodb::WritableFile>* result) {
  const FileKind kind = KindOf(fname);
  std::unique_ptr<flodb::WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) {
    *result =
        std::make_unique<CountingWritableFile>(std::move(file), kind, &For(kind), sync_delay_ns_);
  }
  return s;
}

IoSnapshot BenchEnv::Snapshot() const {
  IoSnapshot out;
  for (size_t i = 0; i < counters_.size(); ++i) {
    const Counters& c = counters_[i];
    out.kind[i] = IoCounts{c.appends.load(std::memory_order_relaxed),
                           c.append_bytes.load(std::memory_order_relaxed),
                           c.syncs.load(std::memory_order_relaxed),
                           c.reads.load(std::memory_order_relaxed),
                           c.read_bytes.load(std::memory_order_relaxed),
                           c.client_reads.load(std::memory_order_relaxed),
                           c.client_read_bytes.load(std::memory_order_relaxed),
                           c.random_opens.load(std::memory_order_relaxed)};
  }
  return out;
}

}  // namespace perfbench
