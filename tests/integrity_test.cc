// The end-to-end integrity channel: XXH64 kernel correctness (pinned
// spec vectors + a spec-literal reference), ChecksumStore classification
// and sidecar persistence (dual-slot torn-write recovery), the
// wrong-path write fault models, verify-on-read serving correct data
// from parity, and the scrub contracts only the checksum channel can
// honor — repairing family-disagreement stripes parity-only scrub must
// refuse, localizing through degraded stripes, and reporting
// parity-consistent whole-stripe stale writes — and rebuilds and
// degraded writes that repair a condemned survivor on the way.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "codes/registry.h"
#include "obs/trace.h"
#include "raid/fault_injection.h"
#include "raid/integrity.h"
#include "raid/journal.h"
#include "raid/mem_disk.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "util/rng.h"
#include "xorops/checksum.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 256;
constexpr int64_t kStripes = 4;

std::vector<uint8_t> random_blob(Pcg32& rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng.fill_bytes(v.data(), n);
  return v;
}

uint64_t element_device_offset(int64_t stripe, int row, int rows) {
  return (static_cast<uint64_t>(stripe) * static_cast<uint64_t>(rows) +
          static_cast<uint64_t>(row)) *
         kElem;
}

std::string fresh_dir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + "dcode_integrity_" + tag +
                     "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

// --- the checksum kernel ---------------------------------------------------

TEST(Checksum, MatchesPublishedXxh64Vectors) {
  // Reference vectors from the published xxHash spec: the sidecar format
  // promises stock-tool auditability, so these are pinned, not golden.
  EXPECT_EQ(xorops::checksum64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xorops::checksum64("abc", 3), 0x44BC2CF5AD770999ULL);
  // Seed changes the value (the sidecar seeds slots by element index).
  EXPECT_NE(xorops::checksum64("abc", 3, 1), xorops::checksum64("abc", 3));
}

// XXH64 transcribed from the published spec, one step per spec line,
// with no shared code: the oracle the library kernel is checked against.
uint64_t reference_xxh64(const uint8_t* in, size_t len, uint64_t seed) {
  const uint64_t p1 = 11400714785074694791ULL, p2 = 14029467366897019727ULL,
                 p3 = 1609587929392839161ULL, p4 = 9650029242287828579ULL,
                 p5 = 2870177450012600261ULL;
  auto rotl = [](uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto lane = [&](size_t at) {
    uint64_t v = 0;  // little-endian, byte by byte
    for (int b = 7; b >= 0; --b) v = (v << 8) | in[at + static_cast<size_t>(b)];
    return v;
  };
  auto round = [&](uint64_t acc, uint64_t input) {
    return rotl(acc + input * p2, 31) * p1;
  };
  size_t at = 0;
  uint64_t acc;
  if (len >= 32) {
    uint64_t v[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    for (; at + 32 <= len; at += 32) {
      for (int i = 0; i < 4; ++i) {
        v[i] = round(v[i], lane(at + 8 * static_cast<size_t>(i)));
      }
    }
    acc = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (uint64_t vi : v) acc = (acc ^ round(0, vi)) * p1 + p4;
  } else {
    acc = seed + p5;
  }
  acc += len;
  for (; at + 8 <= len; at += 8) {
    acc = rotl(acc ^ round(0, lane(at)), 27) * p1 + p4;
  }
  if (at + 4 <= len) {
    uint64_t w = 0;
    for (int b = 3; b >= 0; --b) w = (w << 8) | in[at + static_cast<size_t>(b)];
    acc = rotl(acc ^ (w * p1), 23) * p2 + p3;
    at += 4;
  }
  for (; at < len; ++at) acc = rotl(acc ^ (in[at] * p5), 11) * p1;
  acc ^= acc >> 33;
  acc *= p2;
  acc ^= acc >> 29;
  acc *= p3;
  acc ^= acc >> 32;
  return acc;
}

TEST(Checksum, MatchesSpecReferenceXxh64) {
  Pcg32 rng(7);
  // Lengths cover: empty, sub-tail, every block-loop remainder class
  // around the 32-byte accumulate, and a large buffer.
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{31}, size_t{32},
                     size_t{33}, size_t{63}, size_t{64}, size_t{65},
                     size_t{255}, size_t{256}, size_t{4096}, size_t{4099}}) {
    std::vector<uint8_t> data = random_blob(rng, len);
    for (uint64_t seed : {uint64_t{0}, uint64_t{42}}) {
      EXPECT_EQ(xorops::checksum64(data.data(), len, seed),
                reference_xxh64(data.data(), len, seed))
          << "len " << len << " seed " << seed;
    }
  }
}

// --- write-identity tags ---------------------------------------------------

TEST(IdentityTag, PacksAndUnpacksEveryField) {
  const uint64_t tag = make_tag(/*generation=*/3, /*stripe=*/0xABCDE,
                                /*row=*/0x5F, /*role=*/2);
  EXPECT_EQ(tag_generation(tag), 3u);
  EXPECT_EQ(tag_stripe(tag), 0xABCDE);
  EXPECT_EQ(tag_row(tag), 0x5F);
  EXPECT_EQ(tag_role(tag), 2);
  // Generation starts at 1, so a zero tag always means "untracked".
  EXPECT_NE(make_tag(1, 0, 0, 0), 0u);
}

// --- ChecksumStore classification ------------------------------------------

TEST(ChecksumStore, ClassifiesEveryVerdict) {
  ChecksumStore store(8);
  const uint64_t a1 = 111, a2 = 222, b1 = 333;

  EXPECT_EQ(store.classify(0, a1), IntegrityVerdict::kUntracked);

  store.record(0, a1, /*stripe=*/0, /*row=*/0, /*role=*/0);
  store.record(1, b1, /*stripe=*/0, /*row=*/1, /*role=*/0);
  EXPECT_EQ(store.classify(0, a1), IntegrityVerdict::kOk);

  store.record(0, a2, 0, 0, 0);  // second write: a1 becomes prev
  EXPECT_EQ(store.classify(0, a2), IntegrityVerdict::kOk);
  EXPECT_EQ(store.classify(0, a1), IntegrityVerdict::kStale);
  EXPECT_EQ(store.classify(0, b1), IntegrityVerdict::kMisdirected);
  EXPECT_EQ(store.classify(0, 999), IntegrityVerdict::kCorrupt);

  const ChecksumStore::Snapshot s = store.load(0);
  EXPECT_EQ(s.sum, a2);
  EXPECT_EQ(s.prev, a1);
  EXPECT_EQ(tag_generation(s.tag), 2u);
}

TEST(ChecksumStore, ResyncClearsStaleHistory) {
  ChecksumStore store(4);
  store.record(2, 10, 1, 2, 0);
  store.record(2, 20, 1, 2, 0);
  EXPECT_EQ(store.classify(2, 10), IntegrityVerdict::kStale);
  // Reconstruction re-derives the record; the previous payload is
  // unknowable, so stale detection restarts instead of false-positiving.
  store.resync(2, 20, 1, 2, 0);
  EXPECT_EQ(store.classify(2, 10), IntegrityVerdict::kCorrupt);
  EXPECT_EQ(store.classify(2, 20), IntegrityVerdict::kOk);
  EXPECT_EQ(store.load(2).prev, 0u);

  store.invalidate_all();
  EXPECT_EQ(store.classify(2, 20), IntegrityVerdict::kUntracked);
}

// --- sidecar persistence ---------------------------------------------------

TEST(ChecksumStoreSidecar, SurvivesReopenBitIdentical) {
  const std::string dir = fresh_dir("reopen");
  const std::string path = dir + "/disk0.sum";
  {
    ChecksumStore store(16);
    store.attach_file(path);
    EXPECT_TRUE(store.persistent());
    store.record(3, 0xAAA, 0, 3, 0);
    store.record(3, 0xBBB, 0, 3, 0);
    store.record(7, 0xCCC, 1, 1, 1);
    store.flush();
  }
  ChecksumStore reopened(16);
  reopened.attach_file(path);
  EXPECT_EQ(reopened.load(3).sum, 0xBBBULL);
  EXPECT_EQ(reopened.load(3).prev, 0xAAAULL);
  EXPECT_EQ(tag_generation(reopened.load(3).tag), 2u);
  EXPECT_EQ(reopened.load(7).sum, 0xCCCULL);
  EXPECT_EQ(tag_role(reopened.load(7).tag), 1);
  EXPECT_FALSE(reopened.load(0).tracked());
}

TEST(ChecksumStoreSidecar, TornSlotFallsBackToOtherSlot) {
  const std::string dir = fresh_dir("torn");
  const std::string path = dir + "/disk0.sum";
  {
    ChecksumStore store(4);
    store.attach_file(path);
    store.record(1, 0x11, 0, 1, 0);  // state A
    store.record(1, 0x22, 0, 1, 0);  // state B (other slot)
    store.flush();
  }
  // Tear one slot: whatever state it held, the loader must fall back to
  // the other slot's valid record — never garbage, never untracked.
  for (int torn = 0; torn < 2; ++torn) {
    std::string copy = dir + "/torn" + std::to_string(torn) + ".sum";
    {
      std::vector<uint8_t> raw;
      int fd = open(path.c_str(), O_RDONLY);
      ASSERT_GE(fd, 0);
      const off_t len = lseek(fd, 0, SEEK_END);
      raw.resize(static_cast<size_t>(len));
      ASSERT_TRUE(detail::pread_fully(fd, raw.data(), raw.size(), 0));
      close(fd);
      // Scribble over half the slot — a torn sidecar write.
      const int64_t at = ChecksumStore::slot_offset(1, torn);
      for (size_t i = 0; i < ChecksumStore::kSlotBytes / 2; ++i) {
        raw[static_cast<size_t>(at) + i] ^= 0x5A;
      }
      fd = open(copy.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      ASSERT_GE(fd, 0);
      ASSERT_TRUE(detail::pwrite_fully(fd, raw.data(), raw.size(), 0));
      close(fd);
    }
    ChecksumStore reopened(4);
    reopened.attach_file(copy);
    const ChecksumStore::Snapshot s = reopened.load(1);
    EXPECT_TRUE(s.tracked()) << "torn slot " << torn;
    EXPECT_TRUE(s.sum == 0x11 || s.sum == 0x22) << "torn slot " << torn;
  }
  // Both slots torn: the element degrades to untracked, never garbage.
  {
    std::vector<uint8_t> raw;
    int fd = open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    for (int slot = 0; slot < 2; ++slot) {
      std::vector<uint8_t> junk(ChecksumStore::kSlotBytes, 0x7E);
      ASSERT_TRUE(detail::pwrite_fully(fd, junk.data(), junk.size(),
                                       ChecksumStore::slot_offset(1, slot)));
    }
    close(fd);
    ChecksumStore reopened(4);
    reopened.attach_file(path);
    EXPECT_FALSE(reopened.load(1).tracked());
    EXPECT_TRUE(reopened.load(1).sum == 0);
  }
}

TEST(ChecksumStoreSidecar, PreadPwriteFullyHandleShortCounts) {
  const std::string dir = fresh_dir("shortio");
  const std::string path = dir + "/f";
  int fd = open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> data(10, 0xAB);
  EXPECT_TRUE(detail::pwrite_fully(fd, data.data(), data.size(), 0));
  std::vector<uint8_t> back(10, 0);
  EXPECT_TRUE(detail::pread_fully(fd, back.data(), back.size(), 0));
  EXPECT_EQ(back, data);
  // EOF before n bytes: must report failure, not return short.
  std::vector<uint8_t> big(20);
  EXPECT_FALSE(detail::pread_fully(fd, big.data(), big.size(), 0));
  EXPECT_FALSE(detail::pread_fully(fd, back.data(), back.size(), 5));
  // Bad fd: clean failure on both paths.
  close(fd);
  EXPECT_FALSE(detail::pwrite_fully(fd, data.data(), data.size(), 0));
  EXPECT_FALSE(detail::pread_fully(fd, back.data(), back.size(), 0));
}

TEST(ChecksumStoreSidecar, ArraySidecarRecordsDeviceContent) {
  const std::string dir = fresh_dir("array");
  ArrayOptions opts;
  opts.integrity_sidecar_dir = dir;
  auto layout = codes::make_layout("dcode", 5);
  const int rows = layout->rows();
  Raid6Array array(std::move(layout), kElem, kStripes, 2, nullptr, opts);
  Pcg32 rng(31);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  array.flush();

  // The persisted record for (disk 2, stripe 1, row 0) must hash exactly
  // the bytes the device holds there.
  std::vector<uint8_t> elem(kElem);
  array.disk(2).read(element_device_offset(1, 0, rows), elem);
  const uint64_t want = xorops::checksum64(elem.data(), elem.size());

  ChecksumStore reopened(kStripes * rows);
  reopened.attach_file(dir + "/disk2.sum");
  const auto snap = reopened.load(1 * rows + 0);
  EXPECT_EQ(snap.sum, want);
  EXPECT_EQ(tag_stripe(snap.tag), 1);
  EXPECT_EQ(tag_row(snap.tag), 0);
}

// --- wrong-path write fault models -----------------------------------------

TEST(WrongPathWrites, LostTornMisdirectedSemantics) {
  FaultInjectingDevice dev(std::make_unique<MemDisk>(0, 4096));
  std::vector<uint8_t> zero(4096, 0);
  ASSERT_TRUE(dev.write(0, zero).ok());

  std::vector<uint8_t> payload(256, 0xCD);
  std::vector<uint8_t> back(256);

  // Lost: acknowledged in full, nothing lands.
  dev.inject_lost_writes(1);
  EXPECT_EQ(dev.pending_wrong_path_writes(), 1);
  IoResult r = dev.write(512, payload);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, payload.size());
  EXPECT_EQ(dev.pending_wrong_path_writes(), 0);
  ASSERT_TRUE(dev.read(512, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(256, 0));

  // Torn: acknowledged in full, only the prefix persists.
  dev.inject_torn_writes(1, 10);
  ASSERT_TRUE(dev.write(512, payload).ok());
  ASSERT_TRUE(dev.read(512, back).ok());
  EXPECT_EQ(std::vector<uint8_t>(back.begin(), back.begin() + 10),
            std::vector<uint8_t>(10, 0xCD));
  EXPECT_EQ(std::vector<uint8_t>(back.begin() + 10, back.end()),
            std::vector<uint8_t>(246, 0));

  // Misdirected: acknowledged in full, lands offset_delta away.
  dev.inject_misdirected_writes(1, 1024);
  ASSERT_TRUE(dev.write(0, payload).ok());
  ASSERT_TRUE(dev.read(0, back).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(256, 0)) << "target untouched";
  ASSERT_TRUE(dev.read(1024, back).ok());
  EXPECT_EQ(back, payload) << "payload landed at the slipped offset";

  // Disarm clears every family; the next write lands normally.
  dev.inject_lost_writes(2);
  dev.inject_torn_writes(2, 1);
  dev.inject_misdirected_writes(2, 512);
  EXPECT_EQ(dev.pending_wrong_path_writes(), 6);
  dev.clear_wrong_path_writes();
  EXPECT_EQ(dev.pending_wrong_path_writes(), 0);
  ASSERT_TRUE(dev.write(2048, payload).ok());
  ASSERT_TRUE(dev.read(2048, back).ok());
  EXPECT_EQ(back, payload);
}

// --- verify-on-read: correct data from parity ------------------------------

// One array + shadow; arms one wrong-path family on one disk, rewrites
// stripe 0 through the array (the armed disk's coalesced run goes wrong
// while being acknowledged), then proves reads still return the intended
// bytes, the expected verdict kind was counted, and repair scrub
// converges. `expected_kind` may be empty when the verdict depends on
// where the payload lands (misdirected writes clobber parity rows too).
void run_wrong_path_family(
    const std::function<void(FaultInjectingDevice&)>& arm,
    const std::string& expected_kind) {
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  Pcg32 rng(61);
  auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, shadow);
  ASSERT_EQ(array.scrub(), 0);

  const int victim = 2;
  arm(array.disk(victim).faults());
  // Full-stripe rewrite of stripe 0: every disk takes one coalesced run;
  // the victim's run is acknowledged but wrong.
  const size_t stripe_bytes =
      static_cast<size_t>(array.capacity() / kStripes);
  auto fresh = random_blob(rng, stripe_bytes);
  array.write(0, fresh);
  std::memcpy(shadow.data(), fresh.data(), fresh.size());
  ASSERT_EQ(array.disk(victim).faults().pending_wrong_path_writes(), 0)
      << "the armed fault must have been consumed";

  // Reads detect the lie through the checksum channel and serve the
  // correct bytes from parity.
  std::vector<uint8_t> out(shadow.size());
  array.read(0, out);
  EXPECT_EQ(out, shadow);
  EXPECT_GT(reg.counter("raid.integrity.read_fallbacks").value(), 0);
  EXPECT_GT(reg.counter("raid.integrity.elements_verified").value(), 0);
  if (!expected_kind.empty()) {
    EXPECT_GT(reg.counter("raid.integrity.read_mismatches",
                          {{"kind", expected_kind}})
                  .value(),
              0)
        << expected_kind;
  }

  // Repair scrub makes the damage durable-good again.
  ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_EQ(rep.stripes_unrepairable, 0);
  EXPECT_GT(rep.checksum_mismatches, 0);
  EXPECT_GT(rep.elements_checksum_located, 0);
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> after(shadow.size());
  array.read(0, after);
  EXPECT_EQ(after, shadow);
}

TEST(VerifyOnRead, LostWriteServedFromParityAndRepaired) {
  // A lost write leaves the platter serving the element's previous
  // payload — the stale verdict by construction.
  run_wrong_path_family(
      [](FaultInjectingDevice& f) { f.inject_lost_writes(1); }, "stale");
}

TEST(VerifyOnRead, TornWriteServedFromParityAndRepaired) {
  // A torn run persists a 7-byte prefix: the first element of the run
  // hashes to nothing known (corrupt), the rest reads stale. Which one a
  // data read condemns first depends on the rotation layout, so only the
  // aggregate is asserted (the per-verdict mapping is pinned by the
  // ChecksumStore unit tests).
  run_wrong_path_family(
      [](FaultInjectingDevice& f) { f.inject_torn_writes(1, 7); }, "");
}

TEST(VerifyOnRead, MisdirectedWriteServedFromParityAndRepaired) {
  // A whole-stripe LBA slip (dcode p5 has 4 rows): the victim's stripe-0
  // run lands in stripe-1 territory, so the intended elements read stale
  // and the clobbered elements hold foreign content. A same-stripe slip
  // would be condemned already at the RMW parity pre-read and salvaged
  // inside write() — the stripe-crossing slip is the shape that survives
  // to be caught by verify-on-read. Which kind a data read observes
  // first depends on the rotation layout, so only the aggregate is
  // asserted.
  run_wrong_path_family(
      [](FaultInjectingDevice& f) {
        f.inject_misdirected_writes(1, static_cast<uint64_t>(4 * kElem));
      },
      "");
}

TEST(VerifyOnRead, SameStripeMisdirectInFullStripeWriteServedFromParity) {
  // A full-stripe write reads nothing, so a one-element slip of the
  // victim's run (its data rows and its own parity rows) goes unseen at
  // write time; verify-on-read catches it and repair scrub mends it.
  run_wrong_path_family(
      [](FaultInjectingDevice& f) {
        f.inject_misdirected_writes(1, static_cast<uint64_t>(kElem));
      },
      "");
}

TEST(VerifyOnRead, SameStripeMisdirectSalvagedAtWriteTime) {
  // A read-modify-write reads its old parities after the data writes.
  // Elements 11-12 of dcode p=5 sit in row 2 (the last data row) on
  // columns 1-2, and the parity at (3, 2) is one they dirty: a
  // one-element slip of the victim's data write clobbers that parity
  // row, so the parity pre-read condemns the column mid-update — new data
  // on the healthy columns, pre-update parity everywhere — and the
  // in-place repair cannot converge. write() must escalate to the salvage
  // rewrite: the write succeeds and leaves the stripe clean without any
  // later scrub.
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  Pcg32 rng(62);
  auto shadow = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, shadow);
  ASSERT_EQ(array.scrub(), 0);

  const int victim = 2;
  array.disk(victim).faults().inject_misdirected_writes(
      1, static_cast<uint64_t>(kElem));
  const int64_t at = 11 * static_cast<int64_t>(kElem);
  auto fresh = random_blob(rng, 2 * kElem);
  array.write(at, fresh);
  ASSERT_EQ(array.disk(victim).faults().pending_wrong_path_writes(), 0)
      << "the armed fault must have been consumed";
  std::memcpy(shadow.data() + at, fresh.data(), fresh.size());

  EXPECT_GT(reg.counter("raid.integrity.write_repairs").value(), 0);
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(shadow.size());
  array.read(0, out);
  EXPECT_EQ(out, shadow);
}

// --- checksum-assisted scrub: beyond the parity-only contracts -------------

// The regression the tentpole exists for: two corrupt elements in one
// stripe make the parity families disagree, so parity-only repair must
// refuse (scrub_repair_test pins that) — and the checksum channel then
// localizes both and repairs byte-identically.
TEST(ChecksumScrub, RepairsFamilyDisagreementParityOnlyRefuses) {
  auto lay = codes::make_layout("dcode", 7);
  const int rows = lay->rows();
  obs::Registry reg;
  Raid6Array array(std::move(lay), kElem, kStripes, 2, &reg);
  Pcg32 rng(25);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  for (const auto& [disk, row, nbytes] :
       {std::tuple{0, 0, kElem / 4}, std::tuple{2, 1, kElem / 2}}) {
    std::vector<uint8_t> buf(nbytes);
    array.disk(disk).read(element_device_offset(1, row, rows), buf);
    for (auto& b : buf) b ^= 0xA5;
    array.disk(disk).write(element_device_offset(1, row, rows), buf);
  }

  // Parity-only: detected, unrepairable, correctly attributed.
  ScrubReport parity_only =
      array.scrub_report({.repair = true, .use_checksums = false});
  EXPECT_EQ(parity_only.inconsistent_stripes, std::vector<int64_t>({1}));
  EXPECT_EQ(parity_only.stripes_unrepairable, 1);
  EXPECT_EQ(parity_only.stripes_family_disagreement, 1);
  EXPECT_EQ(parity_only.elements_repaired, 0);

  // Checksum-assisted: both elements condemned by their sidecar records,
  // reconstructed from surviving equations, re-verified, byte-identical.
  ScrubReport assisted = array.scrub_report({.repair = true});
  EXPECT_EQ(assisted.inconsistent_stripes, std::vector<int64_t>({1}));
  EXPECT_EQ(assisted.stripes_unrepairable, 0);
  EXPECT_EQ(assisted.checksum_mismatches, 2);
  EXPECT_EQ(assisted.elements_checksum_located, 2);
  EXPECT_EQ(assisted.elements_repaired, 2);
  EXPECT_EQ(array.scrub(), 0);
  EXPECT_GT(reg.counter("raid.scrub.checksum_located").value(), 0);

  std::vector<uint8_t> out(static_cast<size_t>(array.capacity()));
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

// The checksum channel localizes through a degraded stripe, where the
// parity-only membership comparison is unsound (dead-disk equations).
TEST(ChecksumScrub, LocalizesThroughDegradedStripe) {
  auto lay = codes::make_layout("dcode", 7);
  const int rows = lay->rows();
  Raid6Array array(std::move(lay), kElem, kStripes, 2);
  Pcg32 rng(24);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  std::vector<uint8_t> buf(16);
  array.disk(1).read(element_device_offset(0, 0, rows), buf);
  for (auto& b : buf) b ^= 0xA5;
  array.disk(1).write(element_device_offset(0, 0, rows), buf);
  array.fail_disk(5);  // no spares: stays degraded

  ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_EQ(rep.stripes_unrepairable, 0);
  EXPECT_GT(rep.elements_checksum_located, 0);
  EXPECT_EQ(array.scrub(), 0);
}

// A whole-stripe lost write — every element rolled back together — is
// parity-consistent and unrecoverable from redundancy; the identity tags
// are the only witness. Reported as stale, never counted inconsistent;
// repair mode resyncs the sidecar so reads stop condemning bytes nothing
// can improve.
TEST(ChecksumScrub, WholeStripeStaleReportedNotRepaired) {
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  const int rows = layout->rows();
  const int disks = layout->cols();
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  Pcg32 rng(77);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_EQ(array.scrub(), 0);

  // Snapshot stripe 2 on every device, rewrite it through the array,
  // then roll every device back — the classic array-wide lost write.
  const int64_t stripe = 2;
  const uint64_t dev_off = element_device_offset(stripe, 0, rows);
  const size_t dev_len = static_cast<size_t>(rows) * kElem;
  std::vector<std::vector<uint8_t>> before(static_cast<size_t>(disks));
  for (int d = 0; d < disks; ++d) {
    before[static_cast<size_t>(d)].resize(dev_len);
    array.disk(d).read(dev_off, before[static_cast<size_t>(d)]);
  }
  const int64_t stripe_bytes = array.capacity() / kStripes;
  auto fresh = random_blob(rng, static_cast<size_t>(stripe_bytes));
  array.write(stripe * stripe_bytes, fresh);
  for (int d = 0; d < disks; ++d) {
    array.disk(d).write(dev_off, before[static_cast<size_t>(d)]);
  }

  // Detect: parity consistent, stale, NOT inconsistent.
  ScrubReport detect = array.scrub_report();
  EXPECT_TRUE(detect.inconsistent_stripes.empty());
  EXPECT_EQ(detect.stale_stripes, std::vector<int64_t>({stripe}));
  EXPECT_GT(detect.elements_stale, 0);
  EXPECT_EQ(detect.stripes_unrepairable, 0);

  // Repair: content is unimprovable; the sidecar is resynced so the
  // stripe reads cleanly again (serving the rolled-back bytes).
  ScrubReport repair = array.scrub_report({.repair = true});
  EXPECT_EQ(repair.stale_stripes, std::vector<int64_t>({stripe}));
  EXPECT_EQ(array.scrub(), 0);
  EXPECT_GT(reg.counter("raid.scrub.stripes_stale").value(), 0);
  ScrubReport after = array.scrub_report();
  EXPECT_TRUE(after.stale_stripes.empty());

  std::vector<uint8_t> out(static_cast<size_t>(stripe_bytes));
  array.read(stripe * stripe_bytes, out);  // must not throw post-resync
  EXPECT_EQ(out, std::vector<uint8_t>(
                     blob.begin() + stripe * stripe_bytes,
                     blob.begin() + (stripe + 1) * stripe_bytes));
}

// --- crash consistency: sidecar vs journal ---------------------------------

// A crash between element writes leaves sidecar records ahead of (or
// behind) the platter. Journal replay reads raw, re-encodes parity, and
// resyncs every live element's record — so verified reads work again
// without a single false condemnation surviving recovery.
TEST(ChecksumScrub, JournalRecoveryResyncsSidecarAfterCrash) {
  obs::Registry reg;
  auto layout = codes::make_layout("dcode", 5);
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg);
  array.enable_journal(16);
  Pcg32 rng(91);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_EQ(array.scrub(), 0);

  const int64_t stripe_bytes = array.capacity() / kStripes;
  auto fresh = random_blob(rng, static_cast<size_t>(2 * stripe_bytes));
  array.inject_power_loss_after(3);  // dies mid-update
  EXPECT_THROW(array.write(stripe_bytes, fresh), PowerLossError);

  array.restart();
  ASSERT_FALSE(array.journal_open_stripes().empty());
  array.journal_recover();
  EXPECT_TRUE(array.journal_open_stripes().empty());

  // Replay made stripes parity-consistent AND resynced their sidecar
  // records: repair scrub has nothing unrepairable, and a verified read
  // of the whole array does not throw.
  ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_EQ(rep.stripes_unrepairable, 0);
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(static_cast<size_t>(array.capacity()));
  EXPECT_NO_THROW(array.read(0, out));
}

// --- rebuild through a checksum-condemned survivor -------------------------

// dcode p=7, 256 B elements, 4 stripes, one hot spare; 16 bytes of disk 1
// / stripe 0 / row 0 are flipped behind the array's back, then disk 5
// fails. That element is a survivor the minimal-read plan for column 5
// reads, so the rebuild has to repair it, not abort on it.
void rebuild_through_condemned_survivor(bool background) {
  obs::Registry reg;
  ArrayOptions opts;
  opts.background_rebuild = background;
  auto layout = codes::make_layout("dcode", 7);
  const int rows = layout->rows();
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg, opts);
  array.add_hot_spares(1);
  Pcg32 rng(1207);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  const uint64_t victim = element_device_offset(0, 0, rows);
  std::vector<uint8_t> bytes(16);
  array.disk(1).read(victim, bytes);
  for (uint8_t& b : bytes) b ^= 0xA5;
  array.disk(1).write(victim, bytes);

  EXPECT_NO_THROW(array.fail_disk(5));
  ASSERT_TRUE(array.wait_for_rebuild());
  EXPECT_EQ(array.failed_disk_count(), 0);
  for (const char* reason : {"power_loss", "disk_failed", "undecodable"}) {
    EXPECT_EQ(
        reg.counter("raid.rebuild.pass_aborts", {{"reason", reason}}).value(),
        0)
        << reason;
  }

  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
  // The condemned element itself was rewritten, not just read around.
  std::vector<uint8_t> elem(kElem);
  array.disk(1).read(victim, elem);
  EXPECT_EQ(array.io_engine().classify_element(1, 0, 0, elem.data()),
            IntegrityVerdict::kOk);
  const ScrubReport rep = array.scrub_report();
  EXPECT_TRUE(rep.inconsistent_stripes.empty());
  EXPECT_EQ(rep.checksum_mismatches, 0);
  EXPECT_EQ(rep.stripes_unrepairable, 0);
}

TEST(RebuildCondemnedSurvivor, BackgroundPassRepairsAndCompletes) {
  rebuild_through_condemned_survivor(/*background=*/true);
}

TEST(RebuildCondemnedSurvivor, SynchronousRebuildRepairsAndCompletes) {
  rebuild_through_condemned_survivor(/*background=*/false);
}

TEST(RebuildCondemnedSurvivor, BeyondToleranceStandsDownVisibly) {
  // Disk 3 is already dead with no spare, so the spare promoted for disk
  // 5 leaves two lost columns; a condemned survivor on top of that is
  // beyond a two-fault code. The pass must stand down — counted and
  // traced with its cause — rather than write a guess onto the spare.
  obs::Registry reg;
  ArrayOptions opts;
  opts.background_rebuild = true;
  auto layout = codes::make_layout("dcode", 7);
  const int rows = layout->rows();
  Raid6Array array(std::move(layout), kElem, kStripes, 2, &reg, opts);
  Pcg32 rng(1208);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  array.fail_disk(3);
  array.add_hot_spares(1);
  const uint64_t victim = element_device_offset(0, 0, rows);
  std::vector<uint8_t> bytes(16);
  array.disk(1).read(victim, bytes);
  for (uint8_t& b : bytes) b ^= 0xA5;
  array.disk(1).write(victim, bytes);

  std::ostringstream trace;
  obs::TraceLog::global().attach(&trace);
  array.fail_disk(5);
  const bool rebuilt = array.wait_for_rebuild();
  obs::TraceLog::global().close();
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(
      reg.counter("raid.rebuild.pass_aborts", {{"reason", "undecodable"}})
          .value(),
      1);
  const std::string t = trace.str();
  const size_t at = t.find("rebuild.stand_down");
  ASSERT_NE(at, std::string::npos);
  const std::string line = t.substr(at, t.find('\n', at) - at);
  EXPECT_NE(line.find("undecodable"), std::string::npos) << line;
  EXPECT_NE(line.find("\"stripe\":0"), std::string::npos) << line;
}

// --- degraded write through a checksum-condemned survivor ------------------

// dcode p=7, 256 B elements, one failed disk and no spare. 16 bytes of one
// live element of stripe 0 are flipped behind the array's back, then a
// 16-byte write lands in the same stripe. One dead column plus one
// condemned element is within the code's two-column tolerance, so the
// write must decode through both, succeed, and leave the stripe exact
// and clean — for every dead disk and every live (disk, row). The write
// target does not change the outcome; first, middle and last data
// element stand in for the rest.
TEST(DegradedWriteCondemnedSurvivor, EveryDeadDiskAndVictimRepairs) {
  constexpr int64_t kSweepStripes = 2;
  auto probe = codes::make_layout("dcode", 7);
  const int cols = probe->cols();
  const int rows = probe->rows();
  const int64_t data_count = probe->data_count();
  int cases = 0;
  int threw = 0;
  int wrong_bytes = 0;
  int scrub_dirty = 0;
  int victim_condemned = 0;
  std::string first_failure;
  auto fail = [&](int* counter, const std::string& what) {
    if (first_failure.empty()) first_failure = what;
    ++*counter;
  };
  for (int dead = 0; dead < cols; ++dead) {
    for (int vdisk = 0; vdisk < cols; ++vdisk) {
      if (vdisk == dead) continue;
      for (int vrow = 0; vrow < rows; ++vrow) {
        for (int64_t target : {int64_t{0}, data_count / 2, data_count - 1}) {
          ++cases;
          const std::string where =
              "dead " + std::to_string(dead) + ", victim disk " +
              std::to_string(vdisk) + " row " + std::to_string(vrow) +
              ", target " + std::to_string(target);
          obs::Registry reg;
          Raid6Array array(codes::make_layout("dcode", 7), kElem,
                           kSweepStripes, 1, &reg);
          Pcg32 rng(static_cast<uint64_t>(cases));
          auto expect = random_blob(rng, static_cast<size_t>(array.capacity()));
          array.write(0, expect);
          array.fail_disk(dead);

          const uint64_t victim = element_device_offset(0, vrow, rows);
          std::vector<uint8_t> bytes(16);
          array.disk(vdisk).read(victim, bytes);
          for (uint8_t& b : bytes) b ^= 0x5A;
          array.disk(vdisk).write(victim, bytes);

          const int64_t at = target * static_cast<int64_t>(kElem) + 8;
          auto patch = random_blob(rng, 16);
          std::copy(patch.begin(), patch.end(), expect.begin() + at);
          try {
            array.write(at, patch);
          } catch (const std::exception& e) {
            fail(&threw, where + ": write threw " + e.what());
            continue;
          }
          std::vector<uint8_t> out(expect.size());
          array.read(0, out);
          if (out != expect) fail(&wrong_bytes, where + ": wrong bytes");
          const ScrubReport rep = array.scrub_report();
          if (!rep.inconsistent_stripes.empty() ||
              rep.checksum_mismatches != 0 || rep.stripes_unrepairable != 0) {
            fail(&scrub_dirty, where + ": scrub not clean");
          }
          std::vector<uint8_t> elem(kElem);
          array.disk(vdisk).read(victim, elem);
          if (array.io_engine().classify_element(vdisk, 0, vrow, elem.data()) !=
              IntegrityVerdict::kOk) {
            fail(&victim_condemned, where + ": victim still condemned");
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, cols * (cols - 1) * rows * 3);
  EXPECT_EQ(threw, 0) << first_failure;
  EXPECT_EQ(wrong_bytes, 0) << first_failure;
  EXPECT_EQ(scrub_dirty, 0) << first_failure;
  EXPECT_EQ(victim_condemned, 0) << first_failure;
}

// dcode p=7, one failed disk: a parity that a one-element write dirties is
// corrupted behind the array's back, then the whole element is written.
// The condemned parity must be caught before any device write, so it is
// repaired on a consistent stripe and the write completes — for every
// dead disk, every data element of stripe 0 and every dirty parity on a
// live column.
TEST(DegradedWriteCondemnedSurvivor, WholeElementWriteRepairsDirtyParity) {
  constexpr int64_t kSweepStripes = 2;
  auto probe = codes::make_layout("dcode", 7);
  const int cols = probe->cols();
  const int rows = probe->rows();
  int cases = 0;
  int threw = 0;
  int wrong_bytes = 0;
  int scrub_dirty = 0;
  int parity_condemned = 0;
  std::string first_failure;
  auto fail = [&](int* counter, const std::string& what) {
    if (first_failure.empty()) first_failure = what;
    ++*counter;
  };
  for (int dead = 0; dead < cols; ++dead) {
    for (int target = 0; target < probe->data_count(); ++target) {
      const codes::Element written = probe->data_element(target);
      for (int qi : dirty_parity_closure(*probe, {&written, 1})) {
        const codes::Element parity =
            probe->equations()[static_cast<size_t>(qi)].parity;
        if (parity.col == dead) continue;
        ++cases;
        const std::string where =
            "dead " + std::to_string(dead) + ", target " +
            std::to_string(target) + ", parity (" +
            std::to_string(parity.row) + "," + std::to_string(parity.col) +
            ")";
        obs::Registry reg;
        Raid6Array array(codes::make_layout("dcode", 7), kElem, kSweepStripes,
                         1, &reg);
        Pcg32 rng(static_cast<uint64_t>(cases));
        auto expect = random_blob(rng, static_cast<size_t>(array.capacity()));
        array.write(0, expect);
        array.fail_disk(dead);

        const uint64_t victim = element_device_offset(0, parity.row, rows);
        std::vector<uint8_t> bytes(16);
        array.disk(parity.col).read(victim, bytes);
        for (uint8_t& b : bytes) b ^= 0x5A;
        array.disk(parity.col).write(victim, bytes);

        const int64_t at = target * static_cast<int64_t>(kElem);
        auto patch = random_blob(rng, kElem);
        std::copy(patch.begin(), patch.end(), expect.begin() + at);
        try {
          array.write(at, patch);
        } catch (const std::exception& e) {
          fail(&threw, where + ": write threw " + e.what());
          continue;
        }
        std::vector<uint8_t> out(expect.size());
        array.read(0, out);
        if (out != expect) fail(&wrong_bytes, where + ": wrong bytes");
        const ScrubReport rep = array.scrub_report();
        if (!rep.inconsistent_stripes.empty() ||
            rep.checksum_mismatches != 0 || rep.stripes_unrepairable != 0) {
          fail(&scrub_dirty, where + ": scrub not clean");
        }
        std::vector<uint8_t> elem(kElem);
        array.disk(parity.col).read(victim, elem);
        if (array.io_engine().classify_element(parity.col, 0, parity.row,
                                               elem.data()) !=
            IntegrityVerdict::kOk) {
          fail(&parity_condemned, where + ": parity still condemned");
        }
      }
    }
  }
  EXPECT_GT(cases, cols * probe->data_count());
  EXPECT_EQ(threw, 0) << first_failure;
  EXPECT_EQ(wrong_bytes, 0) << first_failure;
  EXPECT_EQ(scrub_dirty, 0) << first_failure;
  EXPECT_EQ(parity_condemned, 0) << first_failure;
}

}  // namespace
}  // namespace dcode::raid
