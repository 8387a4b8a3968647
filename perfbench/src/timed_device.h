// TimedDevice: the benchmark's BlockDevice decorator.
//
// Installed through ArrayOptions::device_factory around the backend the
// array would otherwise get (MemDisk or FileDisk). It forwards every call
// unchanged — vectored I/O, flush, discard, capabilities and the backend
// name — and counts calls and bytes per device slot. While the SpanLog is
// enabled it also times each call and records a span tagged with the id
// of the array op bound to the calling thread (obs::current_op_context()).
//
// A slot is one (shard, disk) position of the pool. Replacement devices
// (spare promotions) land in the slot of the disk they replace, so the
// per-slot totals survive the rebuild cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "raid/block_device.h"

namespace perfbench {

namespace raid = dcode::raid;

struct alignas(64) SlotCounters {
  std::atomic<int64_t> read_calls{0};
  std::atomic<int64_t> write_calls{0};
  std::atomic<int64_t> other_calls{0};  // flush + discard
  std::atomic<int64_t> bytes_read{0};
  std::atomic<int64_t> bytes_written{0};
  std::atomic<int64_t> busy_ns{0};  // only while the SpanLog is enabled
};

// Point-in-time copy of one slot (or a sum of slots).
struct SlotTotals {
  int64_t read_calls = 0;
  int64_t write_calls = 0;
  int64_t other_calls = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t busy_ns = 0;

  SlotTotals operator-(const SlotTotals& o) const;
  SlotTotals& operator+=(const SlotTotals& o);
  int64_t bytes() const { return bytes_read + bytes_written; }
};

// Owns the per-slot counters and hands out the decorating factory.
class DeviceBoard {
 public:
  DeviceBoard(int shards, int disks_per_shard);
  DeviceBoard(const DeviceBoard&) = delete;
  DeviceBoard& operator=(const DeviceBoard&) = delete;

  // Wraps every device `inner` creates. The pool builds shard 0's disks
  // first, then shard 1's, ..., so the n-th device created belongs to
  // shard n / disks_per_shard; devices created after that (spares) go to
  // the shard named by the last set_replacement_shard().
  raid::DeviceFactory factory(raid::DeviceFactory inner);
  void set_replacement_shard(int shard) {
    replacement_shard_.store(shard, std::memory_order_relaxed);
  }

  int slots() const { return static_cast<int>(counters_.size()); }
  SlotTotals slot(int i) const;
  std::vector<SlotTotals> per_slot() const;
  SlotTotals total() const;

 private:
  int shards_;
  int disks_per_shard_;
  std::vector<SlotCounters> counters_;
  std::atomic<int64_t> created_{0};
  std::atomic<int> replacement_shard_{0};
};

class TimedDevice : public raid::BlockDevice {
 public:
  TimedDevice(std::unique_ptr<raid::BlockDevice> inner, int slot,
              SlotCounters* counters);

  std::string_view backend_name() const override {
    return inner_->backend_name();
  }
  uint32_t capabilities() const override { return inner_->capabilities(); }

 protected:
  raid::IoResult do_read(uint64_t offset, std::span<uint8_t> out) override;
  raid::IoResult do_write(uint64_t offset,
                          std::span<const uint8_t> in) override;
  raid::IoResult do_readv(uint64_t offset,
                          std::span<const raid::IoVec> iov) override;
  raid::IoResult do_writev(uint64_t offset,
                           std::span<const raid::ConstIoVec> iov) override;
  raid::IoResult do_flush() override;
  raid::IoResult do_discard(uint64_t offset, size_t len) override;

 private:
  // Runs `call` (one forwarded device call), counting and, when the span
  // log is on, timing it.
  template <typename Call>
  raid::IoResult timed(int kind, Call&& call);

  std::unique_ptr<raid::BlockDevice> inner_;
  int slot_;
  SlotCounters* counters_;
};

}  // namespace perfbench
