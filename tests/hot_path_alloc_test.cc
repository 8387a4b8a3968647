// Heap-allocation budget of the array's stripe hot path.
//
// This binary replaces the global allocation functions with counting
// versions, warms an array up, and then checks what each op allocates:
// healthy reads and writes of 1-4 elements and whole stripes make no
// allocation at all, and neither do degraded writes with a disk failed
// (no spare); degraded reads make no allocation of an element's size or
// more — element and stripe buffers come from the executing thread's
// reusable scratch. With four pool threads the engine's per-disk fan-out
// allocates nothing either.
//
// Counting is process-wide (every thread); the fixture's array runs with
// one pool thread, so its fan-out executes inline on the calling thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raid/mem_disk.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_big_allocs{0};
std::atomic<size_t> g_big_bytes{SIZE_MAX};

void note_alloc(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n >= g_big_bytes.load(std::memory_order_relaxed)) {
    g_big_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(size_t n, size_t align) {
  note_alloc(n);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n == 0 ? 1 : n);
  } else if (posix_memalign(&p, align, n == 0 ? align : n) != 0) {
    p = nullptr;
  }
  return p;
}

void* counted_new(size_t n, size_t align) {
  void* p = counted_alloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return counted_new(n, 0); }
void* operator new[](size_t n) { return counted_new(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return counted_new(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dcode::raid {
namespace {

constexpr size_t kElem = 4096;
constexpr int64_t kStripes = 8;

// One byte-addressed op: [offset, offset + len) of the logical space.
struct Op {
  int64_t offset;
  size_t len;
};

// Counts allocations made while `fn` runs.
struct AllocDelta {
  int64_t all;
  int64_t big;
};
template <typename Fn>
AllocDelta count_allocs(Fn&& fn) {
  const int64_t a0 = g_allocs.load();
  const int64_t b0 = g_big_allocs.load();
  fn();
  return {g_allocs.load() - a0, g_big_allocs.load() - b0};
}

class HotPathAlloc : public ::testing::Test {
 protected:
  void SetUp() override {
    // Tracing (DCODE_TRACE) formats every span; the budget is for the
    // untraced hot path.
    obs::TraceLog::global().close();
    ArrayOptions opts;
    // MemDisk whatever DCODE_DISK_BACKEND says: the budget is the
    // array's, not a backend's.
    opts.device_factory = [](int id, size_t size) {
      return std::unique_ptr<BlockDevice>(std::make_unique<MemDisk>(id, size));
    };
    opts.integrity_checksums = true;
    opts.verify_reads = true;
    array_ = std::make_unique<Raid6Array>(codes::make_layout("dcode", 7),
                                          kElem, kStripes, /*threads=*/1,
                                          &registry_, opts);
    shadow_.resize(static_cast<size_t>(array_->capacity()));
    Pcg32 rng(7);
    for (auto& b : shadow_) b = static_cast<uint8_t>(rng.next_u32());
    array_->write(0, shadow_);
    g_big_bytes.store(kElem);
    // The replacement must be what the library calls, sanitizer runtimes
    // included, or every budget below would pass vacuously.
    const AllocDelta probe =
        count_allocs([] { ::operator delete(::operator new(kElem)); });
    ASSERT_EQ(probe.all, 1);
    ASSERT_EQ(probe.big, 1);
  }
  void TearDown() override { g_big_bytes.store(SIZE_MAX); }

  int64_t dps() const { return array_->layout().data_count(); }
  int64_t stripe_bytes() const { return dps() * static_cast<int64_t>(kElem); }

  // 1-4 elements: aligned, with both edges inside an element, and
  // shifted so the head and tail are partial; then a range inside one
  // element and two ranges crossing a stripe boundary.
  std::vector<Op> ops() const {
    const int64_t e = static_cast<int64_t>(kElem);
    std::vector<Op> v;
    for (size_t n = 1; n <= 4; ++n) {
      v.push_back({3 * e, n * kElem});
      v.push_back({3 * e + 100, n * kElem - 200});
      v.push_back({3 * e + 512, n * kElem});
    }
    v.push_back({7 * e, 100});
    v.push_back({stripe_bytes() - 2 * e, 4 * kElem});
    v.push_back({2 * stripe_bytes() - e - 64, 2 * kElem});
    return v;
  }

  void write_op(const Op& op, uint8_t salt) {
    for (size_t i = 0; i < op.len; ++i) {
      shadow_[static_cast<size_t>(op.offset) + i] =
          static_cast<uint8_t>(shadow_[static_cast<size_t>(op.offset) + i] +
                               salt);
    }
    array_->write(op.offset, {shadow_.data() + op.offset, op.len});
  }
  void read_op(const Op& op) {
    array_->read(op.offset, {buf_.data(), op.len});
  }
  void expect_read_matches(const Op& op) {
    ASSERT_EQ(0, std::memcmp(buf_.data(), shadow_.data() + op.offset, op.len))
        << "offset " << op.offset << " len " << op.len;
  }

  obs::Registry registry_;
  std::unique_ptr<Raid6Array> array_;
  std::vector<uint8_t> shadow_;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(8 * kElem);
};

TEST_F(HotPathAlloc, HealthyReadsAndRmwWritesAllocateNothing) {
  const std::vector<Op> list = ops();
  // Warm-up: the thread's scratch and every lazily built table grow here.
  for (const Op& op : list) {
    write_op(op, 1);
    read_op(op);
  }
  for (const Op& op : list) {
    const AllocDelta w = count_allocs([&] { write_op(op, 3); });
    EXPECT_EQ(w.all, 0) << "write offset " << op.offset << " len " << op.len;
    const AllocDelta r = count_allocs([&] { read_op(op); });
    EXPECT_EQ(r.all, 0) << "read offset " << op.offset << " len " << op.len;
    expect_read_matches(op);
  }
  EXPECT_EQ(array_->scrub(), 0);
}

TEST_F(HotPathAlloc, DegradedOpsAllocateNoElementSizedBlock) {
  array_->fail_disk(2);
  ASSERT_EQ(array_->failed_disk_count(), 1);
  const std::vector<Op> list = ops();
  for (const Op& op : list) {
    write_op(op, 1);
    read_op(op);
  }
  // Elements on the failed disk force equation reconstruction.
  std::vector<Op> reads = list;
  const auto& layout = array_->layout();
  for (int64_t g = 0; g < dps(); ++g) {
    if (layout.data_element(static_cast<int>(g)).col == 2) {
      reads.push_back({g * static_cast<int64_t>(kElem), kElem});
      read_op(reads.back());
    }
  }
  for (const Op& op : list) {
    const AllocDelta w = count_allocs([&] { write_op(op, 5); });
    EXPECT_EQ(w.all, 0) << "degraded write offset " << op.offset << " len "
                        << op.len;
  }
  for (const Op& op : reads) {
    const AllocDelta r = count_allocs([&] { read_op(op); });
    EXPECT_EQ(r.big, 0) << "degraded read offset " << op.offset << " len "
                        << op.len;
    expect_read_matches(op);
  }
}

TEST_F(HotPathAlloc, FullStripeWriteAllocatesAndReadsNothing) {
  // A whole stripe is encoded from the new data alone, so a warm write
  // neither allocates nor reads a device.
  const Op whole{stripe_bytes(), static_cast<size_t>(stripe_bytes())};
  write_op(whole, 1);
  auto device_reads = [&] {
    int64_t n = 0;
    for (int d = 0; d < array_->layout().cols(); ++d) {
      n += array_->disk(d).reads();
    }
    return n;
  };
  for (uint8_t salt : {3, 5}) {
    const int64_t reads_before = device_reads();
    const AllocDelta w = count_allocs([&] { write_op(whole, salt); });
    EXPECT_EQ(w.all, 0);
    EXPECT_EQ(device_reads(), reads_before);
  }
  std::vector<uint8_t> out(whole.len);
  array_->read(whole.offset, out);
  EXPECT_EQ(0, std::memcmp(out.data(), shadow_.data() + whole.offset,
                           whole.len));
  EXPECT_EQ(array_->scrub(), 0);
}

TEST(HotPathAllocPool, FourPoolThreadsDispatchWithoutAllocating) {
  // With four pool threads a multi-disk batch fans out across the pool:
  // the dispatch itself must not allocate either.
  obs::TraceLog::global().close();
  obs::Registry registry;
  ArrayOptions opts;
  opts.device_factory = [](int id, size_t size) {
    return std::unique_ptr<BlockDevice>(std::make_unique<MemDisk>(id, size));
  };
  Raid6Array array(codes::make_layout("dcode", 7), kElem, kStripes,
                   /*threads=*/4, &registry, opts);
  ASSERT_EQ(array.io_engine().pool().size(), 4u);
  std::vector<uint8_t> shadow(static_cast<size_t>(array.capacity()));
  Pcg32 rng(11);
  rng.fill_bytes(shadow.data(), shadow.size());
  array.write(0, shadow);
  g_big_bytes.store(kElem);
  const size_t len = 4 * kElem;  // 16 KiB
  std::vector<uint8_t> out(len);
  const std::vector<int64_t> offsets = {
      0, 3 * static_cast<int64_t>(kElem),
      static_cast<int64_t>(kStripes / 2) * array.layout().data_count() *
          static_cast<int64_t>(kElem)};
  for (int64_t off : offsets) {  // warm-up
    array.write(off, {shadow.data() + off, len});
    array.read(off, out);
  }
  for (int64_t off : offsets) {
    for (size_t i = 0; i < len; ++i) ++shadow[static_cast<size_t>(off) + i];
    const AllocDelta w = count_allocs(
        [&] { array.write(off, {shadow.data() + off, len}); });
    EXPECT_EQ(w.all, 0) << "write offset " << off;
    const AllocDelta r = count_allocs([&] { array.read(off, out); });
    EXPECT_EQ(r.all, 0) << "read offset " << off;
    EXPECT_EQ(0, std::memcmp(out.data(), shadow.data() + off, len));
  }
  g_big_bytes.store(SIZE_MAX);
}

}  // namespace
}  // namespace dcode::raid
