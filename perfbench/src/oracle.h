// Correctness oracle: stamped block payloads plus a version shadow.
//
// Every 4 KiB block the benchmark writes carries a header stamp
// (block index, version, run tag) and a payload derived from the run
// seed, the block and the version, so one read of a block can be checked
// byte for byte without keeping a copy of the data.
//
// The shadow keeps, per block, the newest version whose write has
// *started* and the newest whose write has *completed*. Only one caller
// ever writes a given block, so a read that overlaps no write of block b
// must return exactly `completed`, and a read racing writes of b may
// return any version in [completed before the read, started after it].
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace perfbench {

class BlockStamp {
 public:
  BlockStamp(uint64_t seed, size_t block_bytes);

  size_t block_bytes() const { return block_bytes_; }

  // Writes version `version` of `block` into dst[0, block_bytes).
  void fill(uint8_t* dst, int64_t block, uint32_t version) const;
  // True when src holds some version of `block` written by this run;
  // *version receives the stamped version.
  bool check(const uint8_t* src, int64_t block, uint32_t* version) const;

 private:
  uint64_t seed_;
  size_t block_bytes_;
};

class Shadow {
 public:
  explicit Shadow(int64_t blocks);

  int64_t blocks() const { return blocks_; }
  // Called by the block's single writer around each write.
  uint32_t begin_write(int64_t block) {
    return started_[block].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  void end_write(int64_t block, uint32_t version) {
    completed_[block].store(version, std::memory_order_release);
  }
  uint32_t started(int64_t block) const {
    return started_[block].load(std::memory_order_acquire);
  }
  uint32_t completed(int64_t block) const {
    return completed_[block].load(std::memory_order_acquire);
  }

 private:
  int64_t blocks_;
  std::unique_ptr<std::atomic<uint32_t>[]> started_;
  std::unique_ptr<std::atomic<uint32_t>[]> completed_;
};

}  // namespace perfbench
