#include "oracle.h"

#include <cstring>

#include "util/check.h"

namespace perfbench {

namespace {

constexpr size_t kHeaderBytes = 16;

uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Payload word i of (block, version) is base + i * step: cheap to
// generate and compare at memory speed, and distinct per version.
void payload_words(uint64_t seed, int64_t block, uint32_t version,
                   uint64_t* base, uint64_t* step) {
  const uint64_t h = mix64(seed ^ mix64(static_cast<uint64_t>(block) * 2 + 1) ^
                           (static_cast<uint64_t>(version) << 40));
  *base = h;
  *step = mix64(h) | 1;
}

}  // namespace

BlockStamp::BlockStamp(uint64_t seed, size_t block_bytes)
    : seed_(mix64(seed + 0x9e3779b97f4a7c15ULL)), block_bytes_(block_bytes) {
  DCODE_CHECK(block_bytes_ >= kHeaderBytes && block_bytes_ % 8 == 0,
              "block size must be a multiple of 8 and hold the stamp");
}

void BlockStamp::fill(uint8_t* dst, int64_t block, uint32_t version) const {
  const uint32_t tag = static_cast<uint32_t>(seed_);
  std::memcpy(dst, &block, 8);
  std::memcpy(dst + 8, &version, 4);
  std::memcpy(dst + 12, &tag, 4);
  uint64_t base = 0, step = 0;
  payload_words(seed_, block, version, &base, &step);
  for (size_t off = kHeaderBytes, i = 0; off < block_bytes_; off += 8, ++i) {
    const uint64_t w = base + i * step;
    std::memcpy(dst + off, &w, 8);
  }
}

bool BlockStamp::check(const uint8_t* src, int64_t block,
                       uint32_t* version) const {
  int64_t stamped_block = 0;
  uint32_t tag = 0;
  std::memcpy(&stamped_block, src, 8);
  std::memcpy(version, src + 8, 4);
  std::memcpy(&tag, src + 12, 4);
  if (stamped_block != block || tag != static_cast<uint32_t>(seed_)) {
    return false;
  }
  uint64_t base = 0, step = 0;
  payload_words(seed_, block, *version, &base, &step);
  bool ok = true;
  for (size_t off = kHeaderBytes, i = 0; off < block_bytes_; off += 8, ++i) {
    uint64_t w = 0;
    std::memcpy(&w, src + off, 8);
    ok &= (w == base + i * step);
  }
  return ok;
}

Shadow::Shadow(int64_t blocks)
    : blocks_(blocks),
      started_(new std::atomic<uint32_t>[static_cast<size_t>(blocks)]),
      completed_(new std::atomic<uint32_t>[static_cast<size_t>(blocks)]) {
  for (int64_t b = 0; b < blocks; ++b) {
    started_[b].store(0, std::memory_order_relaxed);
    completed_[b].store(0, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
