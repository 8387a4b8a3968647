// Degraded-write planning tests: the planner's degraded write plans must
// mirror the byte-level array's actual I/O, and a degraded D-Code write
// must cost what the per-equation plan says — about what a healthy one
// does (the quantity the degraded-load experiment reports).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "codes/registry.h"
#include "raid/planner.h"
#include "raid/raid6_array.h"
#include "util/rng.h"

namespace dcode::raid {
namespace {

TEST(DegradedWrite, NoFailuresEqualsHealthyPlan) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  std::vector<int> none;
  EXPECT_EQ(planner.plan_degraded_write(3, 9, none).total(),
            planner.plan_write(3, 9).total());
}

TEST(DegradedWrite, PlansNeverTouchFailedDisks) {
  for (const char* name : {"dcode", "xcode", "rdp", "hdp"}) {
    auto layout = codes::make_layout(name, 7);
    AddressMap map(*layout);
    IoPlanner planner(map);
    Pcg32 rng(3);
    for (int f = 0; f < layout->cols(); ++f) {
      int fd[1] = {f};
      for (int trial = 0; trial < 10; ++trial) {
        int64_t start = rng.next_below(
            static_cast<uint32_t>(layout->data_count()));
        int len = rng.next_in_range(1, 20);
        IoPlan plan = planner.plan_degraded_write(start, len, fd);
        for (const auto& a : plan.accesses) {
          EXPECT_NE(a.disk, f) << name;
        }
      }
    }
  }
}

TEST(DegradedWrite, SingleElementCostsAboutAHealthyWrite) {
  // dcode p=7, averaged over every failed disk and every start: a lost
  // data element's two parities are recomputed from the survivors, a
  // live one's are updated read-modify-write (a lost parity skipped), so
  // a one-element degraded write stays within one access of the healthy
  // 6.0 (3 reads + 3 writes).
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  int64_t healthy = 0;
  int64_t degraded = 0;
  int64_t cases = 0;
  for (int f = 0; f < layout->cols(); ++f) {
    int fd[1] = {f};
    for (int64_t start = 0; start < layout->data_count(); ++start) {
      healthy += planner.plan_write(start, 1).total();
      degraded += planner.plan_degraded_write(start, 1, fd).total();
      ++cases;
    }
  }
  EXPECT_EQ(healthy, 6 * cases);
  EXPECT_LE(static_cast<double>(degraded) / static_cast<double>(cases),
            6.0 + 1.0);
}

TEST(DegradedWrite, ArrayAccessCountsMatchPlanner) {
  // The consistency bridge: execute a degraded write on the byte array
  // and compare per-operation disk access counts with the plan.
  auto layout = codes::make_layout("xcode", 7);
  const size_t esize = 128;
  Raid6Array array(codes::make_layout("xcode", 7), esize, 3, 1);
  Pcg32 rng(4);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);
  array.fail_disk(2);
  array.reset_stats();

  AddressMap map(*layout);
  IoPlanner planner(map);
  int fd[1] = {2};
  const int64_t start = 5;
  const int len = 6;
  IoPlan plan = planner.plan_degraded_write(start, len, fd);

  std::vector<uint8_t> patch(static_cast<size_t>(len) * esize);
  rng.fill_bytes(patch.data(), patch.size());
  array.write(start * static_cast<int64_t>(esize), patch);

  int64_t accesses = 0;
  for (int d = 0; d < array.layout().cols(); ++d) {
    accesses += array.disk(d).reads() + array.disk(d).writes();
  }
  EXPECT_EQ(accesses, plan.total());
}

TEST(DegradedWrite, FullStripesReadNothing) {
  // A two-stripe write where disk 0 hosts a different column in each
  // stripe (rotation). Every source of every dirty equation is new data
  // or a dirty parity, so each stripe recomputes its parities from the
  // new data alone: no reads, and one write per live element.
  auto layout = codes::make_layout("dcode", 5);
  AddressMap rotating(*layout, /*rotate=*/true);
  IoPlanner planner(rotating);
  int fd[1] = {0};
  IoPlan plan = planner.plan_degraded_write(0, 2 * layout->data_count(), fd);
  const int64_t live_cells =
      static_cast<int64_t>(layout->rows()) * (layout->cols() - 1);
  EXPECT_EQ(plan.reads(), 0);
  EXPECT_EQ(plan.writes(), 2 * live_cells);
}

TEST(HotSpares, AutomaticRebuildKeepsArrayHealthy) {
  Raid6Array array(codes::make_layout("dcode", 7), 256, 4, 2);
  array.add_hot_spares(3);
  Pcg32 rng(5);
  std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
  rng.fill_bytes(blob.data(), blob.size());
  array.write(0, blob);

  // Three sequential failures, each absorbed by a spare.
  for (int f : {1, 4, 6}) {
    array.fail_disk(f);
    EXPECT_EQ(array.failed_disk_count(), 0) << "spare must absorb disk " << f;
    EXPECT_EQ(array.scrub(), 0);
  }
  EXPECT_EQ(array.hot_spares(), 0);
  std::vector<uint8_t> out(blob.size());
  array.read(0, out);
  EXPECT_EQ(out, blob);

  // Spares exhausted: the next failure degrades the array normally.
  array.fail_disk(0);
  EXPECT_EQ(array.failed_disk_count(), 1);
  array.read(0, out);
  EXPECT_EQ(out, blob);
}

}  // namespace
}  // namespace dcode::raid
