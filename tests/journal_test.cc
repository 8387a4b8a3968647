// Write-hole tests: demonstrate the hole (crash mid-write leaves stale
// parity without journaling), prove the intent journal closes it, fuzz
// crash points across the whole write path, and enumerate every crash
// point of the reconstruct-write and full-stripe-encode protocols.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "raid/file_disk.h"
#include "raid/journal.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

constexpr size_t kElem = 256;

std::vector<uint8_t> random_blob(Pcg32& rng, size_t n) {
  std::vector<uint8_t> v(n);
  rng.fill_bytes(v.data(), n);
  return v;
}

// ---------- the journal itself ----------

TEST(WriteIntentJournal, BeginCommitLifecycle) {
  WriteIntentJournal j(4);
  EXPECT_TRUE(j.empty());
  j.begin(10);
  j.begin(20);
  j.begin(10);  // idempotent
  EXPECT_EQ(j.open_stripes().size(), 2u);
  j.commit(10);
  EXPECT_EQ(j.open_stripes(), std::vector<int64_t>{20});
  j.commit(20);
  EXPECT_TRUE(j.empty());
}

TEST(WriteIntentJournal, FullJournalBackpressure) {
  WriteIntentJournal j(2);
  j.begin(1);
  j.begin(2);
  EXPECT_THROW(j.begin(3), std::logic_error);
  j.commit(1);
  EXPECT_NO_THROW(j.begin(3));
}

TEST(WriteIntentJournal, CommitWithoutBeginRejected) {
  WriteIntentJournal j(2);
  EXPECT_THROW(j.commit(7), std::logic_error);
}

// ---------- the write hole, demonstrated ----------

TEST(WriteHole, CrashMidWriteLeavesStaleParityWithoutJournal) {
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  Pcg32 rng(1);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  // A single-element write = 1 data write + 2 parity writes. Crash after
  // the data write but before the parities.
  auto patch = random_blob(rng, kElem);
  array.inject_power_loss_after(1);
  EXPECT_THROW(array.write(0, patch), PowerLossError);
  EXPECT_TRUE(array.crashed());
  EXPECT_THROW(array.read(0, patch), PowerLossError) << "array is down";

  array.restart();
  EXPECT_EQ(array.scrub(), 1) << "exactly the torn stripe is inconsistent";
}

TEST(WriteHole, JournalRecoveryRestoresConsistency) {
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  array.enable_journal();
  Pcg32 rng(2);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);
  ASSERT_TRUE(array.journal_open_stripes().empty())
      << "completed writes must leave no open intents";

  auto patch = random_blob(rng, kElem);
  array.inject_power_loss_after(2);  // journal record + data, no parity
  EXPECT_THROW(array.write(0, patch), PowerLossError);

  array.restart();
  EXPECT_EQ(array.journal_open_stripes().size(), 1u);
  EXPECT_EQ(array.journal_recover(), 1);
  EXPECT_TRUE(array.journal_open_stripes().empty());
  EXPECT_EQ(array.scrub(), 0) << "recovery must close the write hole";

  // The interrupted write is element-atomic: element 0 holds either the
  // old or the new bytes, everything else is untouched.
  std::vector<uint8_t> out(kElem);
  array.read(0, out);
  bool is_old = std::equal(out.begin(), out.end(), blob.begin());
  bool is_new = std::equal(out.begin(), out.end(), patch.begin());
  EXPECT_TRUE(is_old || is_new);
}

TEST(WriteHole, TornStripeSurvivesSubsequentDiskFailure) {
  // The whole point of closing the hole: after journal recovery, a disk
  // failure reconstructs correct data instead of garbage.
  Raid6Array array(codes::make_layout("dcode", 7), kElem, 4, 1);
  array.enable_journal();
  Pcg32 rng(3);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  auto patch = random_blob(rng, 3 * kElem);
  array.inject_power_loss_after(5);
  try {
    array.write(10 * kElem, patch);
    FAIL() << "expected power loss";
  } catch (const PowerLossError&) {
  }
  array.restart();
  ASSERT_GE(array.journal_recover(), 1);

  // Shadow = whatever the array now believes (recovery made it
  // self-consistent, element-atomically).
  std::vector<uint8_t> shadow(blob.size());
  array.read(0, shadow);

  array.fail_disk(2);
  std::vector<uint8_t> degraded(blob.size());
  array.read(0, degraded);
  EXPECT_EQ(degraded, shadow)
      << "degraded reconstruction must agree with the recovered state";
}

TEST(WriteHole, CrashPointFuzz) {
  // Sweep the crash point across an entire multi-stripe write: at every
  // point, journal recovery must restore full parity consistency.
  Pcg32 rng(4);
  for (int64_t crash_after = 0; crash_after < 60; crash_after += 3) {
    Raid6Array array(codes::make_layout("xcode", 5), kElem, 3, 1);
    array.enable_journal();
    auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
    array.write(0, blob);

    auto patch = random_blob(rng, 20 * kElem);  // spans 2 stripes
    array.inject_power_loss_after(crash_after);
    bool crashed = false;
    try {
      array.write(5 * kElem, patch);
    } catch (const PowerLossError&) {
      crashed = true;
    }
    array.restart();
    array.journal_recover();
    EXPECT_EQ(array.scrub(), 0) << "crash_after=" << crash_after;
    if (!crashed) {
      // Write completed before the budget ran out: content must be exact.
      std::vector<uint8_t> out(patch.size());
      array.read(5 * kElem, out);
      EXPECT_EQ(out, patch);
    }
  }
}

TEST(WriteHole, RecoverRequiresJournalButToleratesDegraded) {
  Raid6Array array(codes::make_layout("dcode", 5), kElem, 2, 1);
  EXPECT_THROW((void)array.journal_recover(), std::logic_error);
  array.enable_journal();
  EXPECT_THROW(array.enable_journal(), std::logic_error);
  // A crash can race a disk failure, so recovery must run on a degraded
  // array (the re-encode decodes lost columns and skips dead devices).
  array.fail_disk(0);
  EXPECT_EQ(array.journal_recover(), 0);
}

TEST(WriteHole, JournaledDegradedWritesAlsoCovered) {
  Raid6Array array(codes::make_layout("rdp", 7), kElem, 3, 1);
  array.enable_journal();
  Pcg32 rng(5);
  auto blob = random_blob(rng, static_cast<size_t>(array.capacity()));
  array.write(0, blob);

  array.fail_disk(1);
  auto patch = random_blob(rng, 4 * kElem);
  array.inject_power_loss_after(10);  // lands mid-update
  try {
    array.write(0, patch);
  } catch (const PowerLossError&) {
  }
  array.restart();
  // Repair the failed disk first, then close the hole.
  array.replace_disk(1);
  // Rebuild of a torn stripe may produce stale-but-consistent-with-parity
  // content; journal_recover then re-encodes it. Order: rebuild (needs
  // all disks present), then recover.
  array.rebuild();
  array.journal_recover();
  EXPECT_EQ(array.scrub(), 0);
}

// ---------- every crash point of the healthy write protocols ----------

// A journaled FileDisk array with persisted sidecars takes one healthy
// write of `len` elements at `start`, crashing after k more element
// writes for every k until the write completes. After restart and
// journal replay: each written element is wholly old or wholly new,
// every byte outside the write is unchanged, the scrub is clean and
// every element's sidecar verdict is kOk.
void enumerate_crash_points(int64_t start, int len) {
  constexpr size_t kFileElem = 64;
  constexpr int64_t kFileStripes = 3;
  std::string tmpl = ::testing::TempDir() + "dcode_crash_points_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  ArrayOptions opts;
  opts.device_factory = [dir](int id, size_t size) {
    return std::unique_ptr<BlockDevice>(std::make_unique<FileDisk>(
        id, size, dir + "/disk" + std::to_string(id) + ".img",
        FileDisk::Options{.reuse = false, .unlink_on_close = true}));
  };
  opts.integrity_sidecar_dir = dir;
  Pcg32 rng(static_cast<uint64_t>(start * 100 + len));
  bool completed = false;
  int crashes = 0;
  for (int64_t k = 0; !completed; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " element writes");
    Raid6Array array(codes::make_layout("dcode", 7), kFileElem, kFileStripes,
                     1, nullptr, opts);
    array.enable_journal();
    auto before = random_blob(rng, static_cast<size_t>(array.capacity()));
    array.write(0, before);
    auto fresh = random_blob(rng, static_cast<size_t>(len) * kFileElem);
    array.inject_power_loss_after(k);
    try {
      array.write(start * static_cast<int64_t>(kFileElem), fresh);
      completed = true;
    } catch (const PowerLossError&) {
      ++crashes;
    }
    array.restart();
    array.journal_recover();

    std::vector<uint8_t> out(before.size());
    array.read(0, out);
    for (int64_t e = 0; e < array.capacity() / static_cast<int64_t>(kFileElem);
         ++e) {
      const uint8_t* got = out.data() + e * static_cast<int64_t>(kFileElem);
      const bool is_old = std::memcmp(got, before.data() + e * kFileElem,
                                      kFileElem) == 0;
      if (e < start || e >= start + len) {
        EXPECT_TRUE(is_old) << "element " << e << " outside the write";
        continue;
      }
      const bool is_new =
          std::memcmp(got, fresh.data() + (e - start) * kFileElem,
                      kFileElem) == 0;
      EXPECT_TRUE(completed ? is_new : is_old || is_new) << "element " << e;
    }
    const ScrubReport rep = array.scrub_report();
    EXPECT_TRUE(rep.inconsistent_stripes.empty());
    EXPECT_EQ(rep.checksum_mismatches, 0);
    const int rows = array.layout().rows();
    std::vector<uint8_t> elem(kFileElem);
    int not_ok = 0;
    for (int d = 0; d < array.layout().cols(); ++d) {
      for (int64_t i = 0; i < kFileStripes * rows; ++i) {
        array.disk(d).read(static_cast<uint64_t>(i) * kFileElem, elem);
        not_ok += array.io_engine().classify_element(
                      d, i / rows, static_cast<int>(i % rows), elem.data()) !=
                  IntegrityVerdict::kOk;
      }
    }
    EXPECT_EQ(not_ok, 0);
  }
  EXPECT_GT(crashes, len) << "every element write must be a crash point";
  std::filesystem::remove_all(dir);
}

TEST(WriteHole, EveryCrashPointOfAReconstructWrite) {
  // 20 elements inside one dcode p=7 stripe: RCW is strictly cheaper.
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  ASSERT_LT(planner.plan_write(5, 20).total(),
            planner.plan_write(5, 20, WritePolicy::kReadModifyWrite).total());
  enumerate_crash_points(5, 20);
}

TEST(WriteHole, EveryCrashPointOfAFullStripeEncode) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  const int dc = layout->data_count();
  ASSERT_EQ(planner.plan_write(dc, dc).reads(), 0);
  enumerate_crash_points(dc, dc);
}

}  // namespace
}  // namespace dcode::raid
