#include "span_log.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPoolRead: return "pool.read";
    case SpanKind::kPoolWrite: return "pool.write";
    case SpanKind::kDeviceRead: return "device.read";
    case SpanKind::kDeviceWrite: return "device.write";
    case SpanKind::kDeviceFlush: return "device.flush";
    case SpanKind::kDeviceDiscard: return "device.discard";
    case SpanKind::kRebuildCycle: return "rebuild.cycle";
  }
  return "unknown";
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local_buffer() {
  // Buffers are owned by the log and never freed, so a thread that exits
  // (a replaced rebuild worker) leaves its spans behind for collect().
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    owned->tid = static_cast<uint16_t>(buffers_.size());
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(SpanKind kind, int64_t start_ns, int64_t end_ns,
                     uint64_t op_id, int32_t where, uint32_t bytes) {
  Buffer& b = local_buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(
      SpanRecord{start_ns, end_ns, op_id, bytes, where, b.tid, kind});
}

std::vector<SpanRecord> SpanLog::collect() const {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void SpanLog::write_tsv(const std::string& path,
                        std::vector<SpanRecord> spans, size_t max_spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const size_t n = std::min(spans.size(), max_spans);
  out << "# " << n << " of " << spans.size() << " spans\n"
      << "kind\ttid\tstart_ns\tend_ns\top_id\twhere\tbytes\n";
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    out << span_kind_name(s.kind) << '\t' << s.tid << '\t'
        << s.start_ns - origin << '\t' << s.end_ns - origin << '\t' << s.op_id
        << '\t' << s.where << '\t' << s.bytes << '\n';
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

}  // namespace perfbench
