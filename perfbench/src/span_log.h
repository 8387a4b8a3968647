// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only at the benchmark's own boundaries: around each
// StoragePool::read/write call the benchmark makes, and around every
// device call its TimedDevice decorator forwards. Each thread appends to
// its own buffer, so recording costs two clock reads, an uncontended lock
// and a push; nothing is written out until the run has ended (write_tsv).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t now_ns();

enum class SpanKind : uint16_t {
  kPoolRead,
  kPoolWrite,
  kDeviceRead,
  kDeviceWrite,
  kDeviceFlush,
  kDeviceDiscard,
  kRebuildCycle,
};

const char* span_kind_name(SpanKind kind);

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Pool spans: the benchmark's own op sequence number. Device spans: the
  // id of the array op bound to the calling thread (0 when none is bound,
  // e.g. on an engine fan-out worker or the rebuild worker).
  uint64_t op_id = 0;
  uint32_t bytes = 0;
  int32_t where = -1;  // device slot for device spans, caller for pool spans
  uint16_t tid = 0;
  SpanKind kind = SpanKind::kPoolRead;
};

class SpanLog {
 public:
  // The process-wide log; recording is off until set_enabled(true).
  static SpanLog& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void record(SpanKind kind, int64_t start_ns, int64_t end_ns, uint64_t op_id,
              int32_t where, uint32_t bytes);

  // Every span recorded so far, across threads. Call once recording has
  // stopped.
  std::vector<SpanRecord> collect() const;

  // One tab-separated line per span (kind, tid, start_ns, end_ns, op_id,
  // where, bytes) in start order, times relative to the first span; at
  // most `max_spans` lines, so a long traced run stays a modest file.
  static void write_tsv(const std::string& path,
                        std::vector<SpanRecord> spans, size_t max_spans);

 private:
  struct Buffer {
    std::mutex mu;  // owner appends, collect() reads
    uint16_t tid = 0;
    std::deque<SpanRecord> spans;  // grows without copying
  };

  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

}  // namespace perfbench
