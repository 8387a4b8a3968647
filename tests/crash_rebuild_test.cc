// Crash interactions with repair: power loss during rebuild and during
// journal recovery must leave the array repairable after restart.
#include <gtest/gtest.h>

#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/journal.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

TEST(CrashDuringRebuild, RestartAndRerunCompletes) {
  Raid6Array array(codes::make_layout("dcode", 7), 256, 8, 1);
  Pcg32 rng(1);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(3);
  array.replace_disk(3);
  array.inject_power_loss_after(10);  // dies partway through the rebuild
  EXPECT_THROW(array.rebuild(), PowerLossError);
  EXPECT_TRUE(array.crashed());

  array.restart();
  // The disk is still marked for rebuild; rerunning finishes the job.
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST(CrashDuringRebuild, TwoDiskRebuildInterrupted) {
  Raid6Array array(codes::make_layout("xcode", 7), 256, 8, 2);
  Pcg32 rng(2);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.fail_disk(1);
  array.fail_disk(5);
  array.replace_disk(1);
  array.replace_disk(5);
  array.inject_power_loss_after(25);
  EXPECT_THROW(array.rebuild(), PowerLossError);
  array.restart();
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST(CrashDuringRebuild, BackgroundPassStandsDownOnPowerLoss) {
  obs::Registry reg;
  ArrayOptions opts;
  opts.background_rebuild = true;
  Raid6Array array(codes::make_layout("dcode", 7), 256, 8, 1, &reg, opts);
  Pcg32 rng(4);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  array.add_hot_spares(1);
  array.inject_power_loss_after(10);  // dies partway through the pass
  array.fail_disk(3);
  EXPECT_FALSE(array.wait_for_rebuild());
  EXPECT_EQ(
      reg.counter("raid.rebuild.pass_aborts", {{"reason", "power_loss"}})
          .value(),
      1);

  array.restart();
  array.rebuild();
  EXPECT_EQ(array.scrub(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

TEST(CrashDuringJournalRecovery, SecondRecoveryPassFinishes) {
  Raid6Array array(codes::make_layout("dcode", 7), 256, 6, 1);
  array.enable_journal();
  Pcg32 rng(3);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  // Tear a multi-stripe write.
  std::vector<uint8_t> patch(20 * 256);
  rng.fill_bytes(patch.data(), patch.size());
  array.inject_power_loss_after(7);
  EXPECT_THROW(array.write(0, patch), PowerLossError);
  array.restart();

  // Crash again during recovery itself (parity rewrites consume budget).
  if (!array.journal_open_stripes().empty()) {
    array.inject_power_loss_after(3);
    try {
      array.journal_recover();
    } catch (const PowerLossError&) {
    }
    array.restart();
  }
  // A final recovery pass must converge.
  array.journal_recover();
  EXPECT_TRUE(array.journal_open_stripes().empty());
  EXPECT_EQ(array.scrub(), 0);
}

TEST(CrashBudget, ZeroBudgetCrashesImmediately) {
  Raid6Array array(codes::make_layout("dcode", 5), 128, 2, 1);
  Pcg32 rng(4);
  std::vector<uint8_t> patch(128);
  rng.fill_bytes(patch.data(), patch.size());
  array.inject_power_loss_after(0);
  EXPECT_THROW(array.write(0, patch), PowerLossError);
  array.restart();
  EXPECT_NO_THROW(array.write(0, patch));
}

}  // namespace
}  // namespace dcode::raid
