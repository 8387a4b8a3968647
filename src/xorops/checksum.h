// Fast 64-bit content checksums for the integrity sidecar.
//
// checksum64() is XXH64 (Yann Collet's xxHash, 64-bit variant),
// reimplemented here as one scalar kernel. The four accumulator lanes
// are independent 64-bit multiply-rotate chains, which the compiler
// already schedules in parallel; vector backends have to emulate the
// 64-bit multiply (SSE2/AVX2 have no 64-bit mullo) and measured slower
// than this loop, so there is no per-ISA dispatch.
//
// The values are persisted in FileDisk sidecar files, so they must match
// the published XXH64 spec exactly (pinned against the reference test
// vectors and a spec-literal reference in tests/integrity_test.cc): a
// sidecar written by this library can be audited with any stock xxhash
// tool.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dcode::xorops {

// XXH64(data, len, seed).
uint64_t checksum64(const void* data, size_t len, uint64_t seed = 0);

}  // namespace dcode::xorops
