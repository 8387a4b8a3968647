#include "timed_device.h"

#include "obs/op_context.h"
#include "span_log.h"
#include "util/check.h"

namespace perfbench {

namespace {

enum CallKind { kRead, kWrite, kFlush, kDiscard };

SpanKind span_kind(int kind) {
  switch (kind) {
    case kRead: return SpanKind::kDeviceRead;
    case kWrite: return SpanKind::kDeviceWrite;
    case kFlush: return SpanKind::kDeviceFlush;
    default: return SpanKind::kDeviceDiscard;
  }
}

}  // namespace

SlotTotals SlotTotals::operator-(const SlotTotals& o) const {
  return SlotTotals{read_calls - o.read_calls,   write_calls - o.write_calls,
                    other_calls - o.other_calls, bytes_read - o.bytes_read,
                    bytes_written - o.bytes_written, busy_ns - o.busy_ns};
}

SlotTotals& SlotTotals::operator+=(const SlotTotals& o) {
  read_calls += o.read_calls;
  write_calls += o.write_calls;
  other_calls += o.other_calls;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  busy_ns += o.busy_ns;
  return *this;
}

DeviceBoard::DeviceBoard(int shards, int disks_per_shard)
    : shards_(shards),
      disks_per_shard_(disks_per_shard),
      counters_(static_cast<size_t>(shards * disks_per_shard)) {}

raid::DeviceFactory DeviceBoard::factory(raid::DeviceFactory inner) {
  return [this, inner = std::move(inner)](
             int id, size_t size) -> std::unique_ptr<raid::BlockDevice> {
    const int64_t n = created_.fetch_add(1, std::memory_order_relaxed);
    const int shard =
        n < static_cast<int64_t>(shards_) * disks_per_shard_
            ? static_cast<int>(n / disks_per_shard_)
            : replacement_shard_.load(std::memory_order_relaxed);
    DCODE_CHECK(id >= 0 && id < disks_per_shard_, "device id out of range");
    const int slot = shard * disks_per_shard_ + id;
    return std::make_unique<TimedDevice>(
        inner(id, size), slot, &counters_[static_cast<size_t>(slot)]);
  };
}

SlotTotals DeviceBoard::slot(int i) const {
  const SlotCounters& c = counters_[static_cast<size_t>(i)];
  return SlotTotals{c.read_calls.load(std::memory_order_relaxed),
                    c.write_calls.load(std::memory_order_relaxed),
                    c.other_calls.load(std::memory_order_relaxed),
                    c.bytes_read.load(std::memory_order_relaxed),
                    c.bytes_written.load(std::memory_order_relaxed),
                    c.busy_ns.load(std::memory_order_relaxed)};
}

std::vector<SlotTotals> DeviceBoard::per_slot() const {
  std::vector<SlotTotals> out;
  for (int i = 0; i < slots(); ++i) out.push_back(slot(i));
  return out;
}

SlotTotals DeviceBoard::total() const {
  SlotTotals t;
  for (int i = 0; i < slots(); ++i) t += slot(i);
  return t;
}

TimedDevice::TimedDevice(std::unique_ptr<raid::BlockDevice> inner, int slot,
                         SlotCounters* counters)
    : BlockDevice(inner->id(), inner->size()),
      inner_(std::move(inner)),
      slot_(slot),
      counters_(counters) {}

template <typename Call>
raid::IoResult TimedDevice::timed(int kind, Call&& call) {
  SpanLog& log = SpanLog::global();
  const bool tracing = log.enabled();
  const int64_t t0 = tracing ? now_ns() : 0;
  const raid::IoResult r = call();
  const auto bytes = static_cast<int64_t>(r.bytes);
  switch (kind) {
    case kRead:
      counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_read.fetch_add(bytes, std::memory_order_relaxed);
      break;
    case kWrite:
      counters_->write_calls.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_written.fetch_add(bytes, std::memory_order_relaxed);
      break;
    default:
      counters_->other_calls.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (tracing) {
    const int64_t t1 = now_ns();
    counters_->busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    const dcode::obs::OpContext* ctx = dcode::obs::current_op_context();
    log.record(span_kind(kind), t0, t1, ctx != nullptr ? ctx->op_id : 0,
               slot_, static_cast<uint32_t>(r.bytes));
  }
  return r;
}

raid::IoResult TimedDevice::do_read(uint64_t offset, std::span<uint8_t> out) {
  return timed(kRead, [&] { return inner_->read(offset, out); });
}

raid::IoResult TimedDevice::do_write(uint64_t offset,
                                     std::span<const uint8_t> in) {
  return timed(kWrite, [&] { return inner_->write(offset, in); });
}

raid::IoResult TimedDevice::do_readv(uint64_t offset,
                                     std::span<const raid::IoVec> iov) {
  return timed(kRead, [&] { return inner_->readv(offset, iov); });
}

raid::IoResult TimedDevice::do_writev(uint64_t offset,
                                      std::span<const raid::ConstIoVec> iov) {
  return timed(kWrite, [&] { return inner_->writev(offset, iov); });
}

raid::IoResult TimedDevice::do_flush() {
  return timed(kFlush, [&] { return inner_->flush(); });
}

raid::IoResult TimedDevice::do_discard(uint64_t offset, size_t len) {
  return timed(kDiscard, [&] { return inner_->discard(offset, len); });
}

}  // namespace perfbench
