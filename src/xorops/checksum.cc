#include "xorops/checksum.h"

#include <cstring>

namespace dcode::xorops {
namespace {

// XXH64 primes (Collet's reference constants).
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline uint64_t round64(uint64_t acc, uint64_t input) {
  return rotl64(acc + input * kP2, 31) * kP1;
}

inline uint64_t merge_round(uint64_t h, uint64_t acc) {
  return (h ^ round64(0, acc)) * kP1 + kP4;
}

}  // namespace

uint64_t checksum64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    // Four independent lanes over 32-byte blocks: the hot loop.
    uint64_t a0 = seed + kP1 + kP2, a1 = seed + kP2, a2 = seed,
             a3 = seed - kP1;
    for (const uint8_t* const limit = end - 32; p <= limit; p += 32) {
      a0 = round64(a0, load64(p));
      a1 = round64(a1, load64(p + 8));
      a2 = round64(a2, load64(p + 16));
      a3 = round64(a3, load64(p + 24));
    }
    h = rotl64(a0, 1) + rotl64(a1, 7) + rotl64(a2, 12) + rotl64(a3, 18);
    h = merge_round(h, a0);
    h = merge_round(h, a1);
    h = merge_round(h, a2);
    h = merge_round(h, a3);
  } else {
    h = seed + kP5;
  }
  h += static_cast<uint64_t>(len);
  while (p + 8 <= end) {
    h ^= round64(0, load64(p));
    h = rotl64(h, 27) * kP1 + kP4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(load32(p)) * kP1;
    h = rotl64(h, 23) * kP2 + kP3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kP5;
    h = rotl64(h, 11) * kP1;
    ++p;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace dcode::xorops
