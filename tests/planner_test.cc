// Tests for the I/O planners: read plans, partial-stripe write plans
// (RMW/RCW choice, dirty parity closures), and degraded-read plans —
// including *executing* degraded plans against real stripe bytes to prove
// the planned reconstructions produce the right data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include "codes/encoder.h"
#include "codes/registry.h"
#include "raid/planner.h"
#include "util/rng.h"
#include "xorops/xor_region.h"

namespace dcode::raid {
namespace {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::make_element;

// ---------- reads ----------

TEST(ReadPlan, OneAccessPerElementInLogicalOrder) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  IoPlan plan = planner.plan_read(0, 4);
  ASSERT_EQ(plan.accesses.size(), 4u);
  // <0,4,T> reads D00, D01, D02, D03 — the paper's own example.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.accesses[static_cast<size_t>(i)].element, make_element(0, i));
    EXPECT_EQ(plan.accesses[static_cast<size_t>(i)].disk, i);
    EXPECT_FALSE(plan.accesses[static_cast<size_t>(i)].is_write);
  }
  EXPECT_EQ(plan.reads(), 4);
  EXPECT_EQ(plan.writes(), 0);
}

TEST(ReadPlan, CrossesStripeBoundary) {
  auto layout = codes::make_layout("dcode", 5);  // 15 data elements/stripe
  AddressMap map(*layout);
  IoPlanner planner(map);
  IoPlan plan = planner.plan_read(13, 5);  // elements 13..17
  ASSERT_EQ(plan.accesses.size(), 5u);
  EXPECT_EQ(plan.accesses[0].stripe, 0);
  EXPECT_EQ(plan.accesses[1].stripe, 0);
  EXPECT_EQ(plan.accesses[2].stripe, 1);
  EXPECT_EQ(plan.accesses[2].element, layout->data_element(0));
}

TEST(ReadPlan, ParityDisksNeverServeNormalReads) {
  auto layout = codes::make_layout("rdp", 7);  // disks 6, 7 are parity
  AddressMap map(*layout);
  IoPlanner planner(map);
  IoPlan plan = planner.plan_read(0, 36);  // a full stripe of data
  for (const auto& a : plan.accesses) {
    EXPECT_LT(a.disk, 6) << "parity disk touched by a normal read";
  }
}

// ---------- dirty parity closure ----------

TEST(DirtyClosure, DCodeSingleElementTouchesExactlyTwoParities) {
  auto layout = codes::make_layout("dcode", 7);
  for (int i = 0; i < layout->data_count(); ++i) {
    Element e = layout->data_element(i);
    std::vector<Element> w = {e};
    EXPECT_EQ(dirty_parity_closure(*layout, w).size(), 2u);
  }
}

TEST(DirtyClosure, RdpCascadesThroughRowParity) {
  // Updating an RDP data element dirties its row parity and diagonal
  // parity; the row parity is itself covered by a diagonal, so the closure
  // reaches 3 equations (2 when the element lies on the missing diagonal
  // or its row parity's diagonal is the missing one).
  auto layout = codes::make_layout("rdp", 7);
  std::map<size_t, int> histogram;
  for (int i = 0; i < layout->data_count(); ++i) {
    Element e = layout->data_element(i);
    std::vector<Element> w = {e};
    ++histogram[dirty_parity_closure(*layout, w).size()];
  }
  EXPECT_GT(histogram[3], 0);
  EXPECT_GT(histogram.count(2), 0u);
  for (const auto& [size, count] : histogram) {
    EXPECT_GE(size, 2u);
    EXPECT_LE(size, 3u);
  }
}

TEST(DirtyClosure, HdpCascadesThroughDiagonalParityRow) {
  // HDP row parities cover the embedded diagonal parity: a data update
  // dirties its row parity, its diagonal parity, and the row parity of
  // the row hosting that diagonal parity (3 equations; 2 when the
  // diagonal parity lives in the writer's own row).
  auto layout = codes::make_layout("hdp", 7);
  std::map<size_t, int> histogram;
  for (int i = 0; i < layout->data_count(); ++i) {
    Element e = layout->data_element(i);
    std::vector<Element> w = {e};
    ++histogram[dirty_parity_closure(*layout, w).size()];
  }
  EXPECT_GT(histogram[3], 0) << "cross-row cascades must exist";
  for (const auto& [size, count] : histogram) {
    EXPECT_GE(size, 2u);
    EXPECT_LE(size, 3u);
  }
}

TEST(DirtyClosure, TopologicalOrderRespected) {
  auto layout = codes::make_layout("rdp", 7);
  std::vector<Element> w = {layout->data_element(0)};
  auto dirty = dirty_parity_closure(*layout, w);
  // Whenever equation B consumes equation A's parity, A must come first.
  std::set<Element> produced;
  for (int qi : dirty) {
    const Equation& q = layout->equations()[static_cast<size_t>(qi)];
    for (const Element& src : q.sources) {
      if (layout->is_parity(src.row, src.col)) {
        bool src_is_dirty = false;
        for (int other : dirty) {
          if (layout->equations()[static_cast<size_t>(other)].parity == src)
            src_is_dirty = true;
        }
        if (src_is_dirty) {
          EXPECT_TRUE(produced.count(src));
        }
      }
    }
    produced.insert(q.parity);
  }
}

// ---------- writes ----------

using WriteParam = std::tuple<std::string, int>;
class WritePlans : public ::testing::TestWithParam<WriteParam> {};
INSTANTIATE_TEST_SUITE_P(
    Codes, WritePlans,
    ::testing::Combine(::testing::Values("dcode", "xcode", "rdp", "hcode",
                                         "hdp", "pcode", "liberation"),
                       ::testing::Values(5, 7, 13)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(WritePlans, WritesCoverDataAndDirtyParitiesExactlyOnce) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  AddressMap map(*layout);
  IoPlanner planner(map);
  Pcg32 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    int64_t start = rng.next_below(
        static_cast<uint32_t>(layout->data_count()));
    int len = rng.next_in_range(1, 20);
    IoPlan plan = planner.plan_write(start, len);

    // Every written data element appears exactly once as a write.
    std::map<std::pair<int64_t, Element>, int> write_count;
    for (const auto& a : plan.accesses) {
      if (a.is_write)
        ++write_count[{a.stripe, a.element}];
    }
    for (int64_t g = start; g < start + len; ++g) {
      auto loc = map.locate(g);
      EXPECT_EQ((write_count[{loc.stripe, loc.element}]), 1)
          << "logical " << g;
    }
    for (const auto& [k, c] : write_count) EXPECT_EQ(c, 1);
    // And the plan writes the data plus at least one parity element.
    EXPECT_GT(plan.writes(), static_cast<int64_t>(len));
  }
}

TEST_P(WritePlans, AutoPolicyNeverBeatenByForcedPolicies) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  AddressMap map(*layout);
  IoPlanner planner(map);
  Pcg32 rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    int64_t start = rng.next_below(static_cast<uint32_t>(layout->data_count()));
    int len = rng.next_in_range(1, 25);
    int64_t auto_cost = planner.plan_write(start, len).total();
    int64_t rmw = planner.plan_write(start, len,
                                     WritePolicy::kReadModifyWrite).total();
    int64_t rcw = planner.plan_write(start, len,
                                     WritePolicy::kReconstructWrite).total();
    // Auto picks per *stripe*, so on multi-stripe ops it can strictly beat
    // both single-policy plans.
    EXPECT_LE(auto_cost, std::min(rmw, rcw));
  }
}

// Within one healthy stripe kAuto is exactly the cheaper forced policy,
// and a tie keeps RMW's plan: every start, every length to the stripe end.
TEST_P(WritePlans, AutoPolicyTakesTheCheaperStripePlanTiesKeepRmw) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  AddressMap map(*layout);
  IoPlanner planner(map);
  const int dc = layout->data_count();
  for (int start = 0; start < dc; ++start) {
    for (int len = 1; start + len <= dc; ++len) {
      const IoPlan chosen = planner.plan_write(start, len);
      const IoPlan rmw =
          planner.plan_write(start, len, WritePolicy::kReadModifyWrite);
      const IoPlan rcw =
          planner.plan_write(start, len, WritePolicy::kReconstructWrite);
      const IoPlan& want = rcw.total() < rmw.total() ? rcw : rmw;
      ASSERT_EQ(chosen.accesses.size(), want.accesses.size())
          << "start " << start << " len " << len;
      for (size_t i = 0; i < want.accesses.size(); ++i) {
        ASSERT_EQ(chosen.accesses[i].element, want.accesses[i].element)
            << "start " << start << " len " << len << " access " << i;
        ASSERT_EQ(chosen.accesses[i].is_write, want.accesses[i].is_write)
            << "start " << start << " len " << len << " access " << i;
      }
    }
  }
}

TEST(WritePlans, FullStripeWriteIsReadFree) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  IoPlan plan = planner.plan_write(0, layout->data_count());
  EXPECT_EQ(plan.reads(), 0) << "full-stripe write must reconstruct";
  EXPECT_EQ(plan.writes(), layout->data_count() + layout->parity_count());
}

TEST(WritePlans, SingleElementWriteCostsPaperOptimal) {
  // D-Code optimal update complexity: 1 data + exactly 2 parities,
  // RMW => 3 reads + 3 writes.
  auto layout = codes::make_layout("dcode", 11);
  AddressMap map(*layout);
  IoPlanner planner(map);
  for (int64_t g : {0, 5, 42, 98}) {
    IoPlan plan = planner.plan_write(g, 1);
    EXPECT_EQ(plan.total(), 6) << "logical " << g;
  }
}

TEST(WritePlans, ContinuousWriteSharesHorizontalParityInDCode) {
  // Writing n-2 aligned consecutive elements dirties exactly ONE
  // horizontal parity (plus n-2 deployment parities).
  const int n = 11;
  auto layout = codes::make_layout("dcode", n);
  std::vector<Element> w;
  for (int i = 0; i < n - 2; ++i) w.push_back(layout->data_element(i));
  auto dirty = dirty_parity_closure(*layout, w);
  int horizontal = 0, deployment = 0;
  for (int qi : dirty) {
    const Equation& q = layout->equations()[static_cast<size_t>(qi)];
    (q.parity.row == n - 2 ? horizontal : deployment) += 1;
  }
  EXPECT_EQ(horizontal, 1);
  EXPECT_EQ(deployment, n - 2);
}

TEST(WritePlans, XCodeSameWriteTouchesTwiceTheParities) {
  // The same n-2 consecutive elements in X-Code dirty ~2(n-2) parities —
  // the partial-write penalty the paper attacks.
  const int n = 11;
  auto dlayout = codes::make_layout("dcode", n);
  auto xlayout = codes::make_layout("xcode", n);
  std::vector<Element> w;
  for (int i = 0; i < n - 2; ++i) w.push_back(dlayout->data_element(i));
  // Same positions exist in X-Code (identical data geometry).
  auto ddirty = dirty_parity_closure(*dlayout, w);
  auto xdirty = dirty_parity_closure(*xlayout, w);
  EXPECT_EQ(ddirty.size(), static_cast<size_t>(n - 1));
  EXPECT_EQ(xdirty.size(), static_cast<size_t>(2 * (n - 2)));
}

// ---------- degraded reads ----------

class DegradedPlans : public ::testing::TestWithParam<WriteParam> {};
INSTANTIATE_TEST_SUITE_P(
    Codes, DegradedPlans,
    ::testing::Combine(::testing::Values("dcode", "xcode", "rdp", "evenodd",
                                         "hcode", "hdp", "pcode", "liberation"),
                       ::testing::Values(5, 7, 11)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// Execute a degraded plan against a real encoded stripe and verify the
// reconstructions reproduce the lost bytes.
TEST_P(DegradedPlans, PlannedReconstructionsProduceCorrectBytes) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  AddressMap map(*layout);
  IoPlanner planner(map);
  const size_t esize = 16;

  Pcg32 rng(21);
  codes::Stripe good(*layout, esize);
  good.randomize_data(rng);
  codes::encode_stripe(good);

  for (int failed = 0; failed < layout->cols(); ++failed) {
    int fd[1] = {failed};
    for (int trial = 0; trial < 10; ++trial) {
      int64_t start = rng.next_below(
          static_cast<uint32_t>(layout->data_count()));
      int len = rng.next_in_range(1, 20);
      // Keep within one stripe for byte-level execution simplicity.
      len = static_cast<int>(
          std::min<int64_t>(len, layout->data_count() - start));
      IoPlan plan = planner.plan_degraded_read(start, len, fd);

      // The plan must never touch the failed disk.
      std::map<Element, const uint8_t*> have;
      for (const auto& a : plan.accesses) {
        ASSERT_NE(a.disk, failed);
        ASSERT_EQ(a.stripe, 0);
        have[a.element] = good.at(a.element);
      }
      // Execute reconstructions in order.
      std::map<Element, std::vector<uint8_t>> rebuilt;
      for (const auto& rec : plan.reconstructions) {
        ASSERT_GE(rec.equation, 0) << "single failure needs no full decode";
        const Equation& q =
            layout->equations()[static_cast<size_t>(rec.equation)];
        std::vector<uint8_t> buf(esize, 0);
        auto fold = [&](const Element& m) {
          if (m == rec.target) return;
          const uint8_t* src = nullptr;
          if (auto it = rebuilt.find(m); it != rebuilt.end()) {
            src = it->second.data();
          } else {
            auto it2 = have.find(m);
            ASSERT_NE(it2, have.end()) << "member not read by the plan";
            src = it2->second;
          }
          xorops::xor_into(buf.data(), src, esize);
        };
        fold(q.parity);
        for (const Element& m : q.sources) fold(m);
        ASSERT_EQ(0, std::memcmp(buf.data(), good.at(rec.target), esize))
            << "reconstruction of (" << rec.target.row << ","
            << rec.target.col << ") is wrong";
        rebuilt[rec.target] = std::move(buf);
      }
      // Every requested element is either read or reconstructed.
      for (int64_t g = start; g < start + len; ++g) {
        Element e = layout->data_element(static_cast<int>(g));
        EXPECT_TRUE(have.count(e) || rebuilt.count(e));
      }
    }
  }
}

TEST(DegradedPlans, NoFailureEqualsNormalRead) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  std::vector<int> none;
  IoPlan degraded = planner.plan_degraded_read(3, 10, none);
  IoPlan normal = planner.plan_read(3, 10);
  EXPECT_EQ(degraded.total(), normal.total());
  EXPECT_TRUE(degraded.reconstructions.empty());
}

TEST(DegradedPlans, SharedHorizontalParityReducesDCodeExtraReads) {
  // Read a run crossing the failed disk twice in adjacent rows: D-Code's
  // horizontal grouping lets the two reconstructions share almost all
  // reads; X-Code's diagonals cannot.
  const int n = 11;
  auto dl = codes::make_layout("dcode", n);
  auto xl = codes::make_layout("xcode", n);
  AddressMap dm(*dl), xm(*xl);
  IoPlanner dp(dm), xp(xm);
  int fd[1] = {5};
  // Two full rows starting at row 0: hits disk 5 twice.
  IoPlan dplan = dp.plan_degraded_read(0, 2 * n, fd);
  IoPlan xplan = xp.plan_degraded_read(0, 2 * n, fd);
  EXPECT_LT(dplan.total(), xplan.total())
      << "D-Code degraded reads must be cheaper than X-Code";
}

TEST_P(DegradedPlans, DoubleFailureChainPlansProduceCorrectBytes) {
  // Two failed disks: plans must be executable in order (chain
  // reconstructions may depend on earlier reconstructions) and yield the
  // original bytes.
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  AddressMap map(*layout);
  IoPlanner planner(map);
  const size_t esize = 16;

  Pcg32 rng(31);
  codes::Stripe good(*layout, esize);
  good.randomize_data(rng);
  codes::encode_stripe(good);

  for (int trial = 0; trial < 20; ++trial) {
    int f1 = rng.next_in_range(0, layout->cols() - 2);
    int f2 = rng.next_in_range(f1 + 1, layout->cols() - 1);
    int fd[2] = {f1, f2};
    int64_t start = rng.next_below(static_cast<uint32_t>(layout->data_count()));
    int len = static_cast<int>(std::min<int64_t>(
        rng.next_in_range(1, 20), layout->data_count() - start));
    IoPlan plan = planner.plan_degraded_read(start, len, fd);

    std::map<Element, std::vector<uint8_t>> have;
    for (const auto& a : plan.accesses) {
      ASSERT_NE(a.disk, f1);
      ASSERT_NE(a.disk, f2);
      have[a.element] = std::vector<uint8_t>(
          good.at(a.element), good.at(a.element) + esize);
    }
    for (const auto& rec : plan.reconstructions) {
      std::vector<uint8_t> buf(esize, 0);
      if (rec.equation >= 0) {
        const Equation& q =
            layout->equations()[static_cast<size_t>(rec.equation)];
        auto fold = [&](const Element& m) {
          if (m == rec.target) return;
          auto it = have.find(m);
          ASSERT_NE(it, have.end())
              << "dependency not satisfied in plan order";
          for (size_t i = 0; i < esize; ++i) buf[i] ^= it->second[i];
        };
        fold(q.parity);
        for (const Element& m : q.sources) fold(m);
        ASSERT_EQ(0, std::memcmp(buf.data(), good.at(rec.target), esize));
        have[rec.target] = std::move(buf);
      } else {
        // Full-decode fallback marker (EVENODD/liberation): trust the
        // stripe decoder, just mark availability.
        have[rec.target] = std::vector<uint8_t>(
            good.at(rec.target), good.at(rec.target) + esize);
      }
    }
    for (int64_t g = start; g < start + len; ++g) {
      Element e = layout->data_element(static_cast<int>(g));
      EXPECT_TRUE(have.count(e)) << "requested element missing";
    }
  }
}

TEST(DegradedPlans, ChainPlansBeatFullStripeDecode) {
  // A short read crossing both failed disks must not read anywhere near
  // the whole stripe for the peelable codes.
  for (const char* name : {"dcode", "xcode", "rdp", "hcode", "hdp"}) {
    auto layout = codes::make_layout(name, 13);
    AddressMap map(*layout);
    IoPlanner planner(map);
    int fd[2] = {2, 3};
    IoPlan plan = planner.plan_degraded_read(0, 6, fd);
    int64_t survivors =
        static_cast<int64_t>(layout->rows()) * (layout->cols() - 2);
    EXPECT_LT(plan.total(), survivors / 2)
        << name << ": chain plan should be far below a full-stripe read";
  }
}

TEST(DegradedPlans, DoubleFailureFallsBackButStaysCorrect) {
  auto layout = codes::make_layout("dcode", 7);
  AddressMap map(*layout);
  IoPlanner planner(map);
  int fd[2] = {2, 3};
  IoPlan plan = planner.plan_degraded_read(0, layout->data_count(), fd);
  for (const auto& a : plan.accesses) {
    EXPECT_NE(a.disk, 2);
    EXPECT_NE(a.disk, 3);
  }
  // All requested lost elements appear as reconstructions.
  std::set<Element> rebuilt;
  for (const auto& r : plan.reconstructions) rebuilt.insert(r.target);
  for (int i = 0; i < layout->data_count(); ++i) {
    Element e = layout->data_element(i);
    if (e.col == 2 || e.col == 3) {
      EXPECT_TRUE(rebuilt.count(e));
    }
  }
}

TEST(DegradedPlans, RotationMapsFailedPhysicalDiskPerStripe) {
  auto layout = codes::make_layout("dcode", 5);
  AddressMap map(*layout, /*rotate=*/true);
  IoPlanner planner(map);
  int fd[1] = {0};
  // Span two stripes; with rotation, physical disk 0 hosts column 0 in
  // stripe 0 but column 4 in stripe 1.
  IoPlan plan = planner.plan_degraded_read(0, 2 * layout->data_count(), fd);
  for (const auto& a : plan.accesses) EXPECT_NE(a.disk, 0);
}

}  // namespace
}  // namespace dcode::raid
