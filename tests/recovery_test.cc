// Tests for single-disk recovery planning: plans must be executable and
// correct, the optimized plan must never read more than the conventional
// one, and for D-Code / X-Code the saving must approach the ~25% of
// Xu et al. that the paper cites (§III-D). At runtime, both rebuild
// drivers must read exactly the planner's survivor set per stripe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "codes/encoder.h"
#include "codes/registry.h"
#include "raid/raid6_array.h"
#include "raid/recovery.h"
#include "util/rng.h"
#include "xorops/xor_region.h"

namespace dcode::raid {
namespace {

using codes::Element;
using codes::Equation;

using Param = std::tuple<std::string, int>;

class Recovery : public ::testing::TestWithParam<Param> {};
INSTANTIATE_TEST_SUITE_P(
    Codes, Recovery,
    ::testing::Combine(::testing::Values("dcode", "xcode", "rdp", "hcode",
                                         "hdp", "pcode", "liberation"),
                       ::testing::Values(5, 7, 11, 13)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// Execute a recovery plan on real bytes and verify correctness.
void execute_and_check(const codes::CodeLayout& layout,
                       const RecoveryPlan& plan, int failed) {
  const size_t esize = 16;
  Pcg32 rng(55);
  codes::Stripe good(layout, esize);
  good.randomize_data(rng);
  codes::encode_stripe(good);

  std::set<Element> readable(plan.reads.begin(), plan.reads.end());
  for (const Element& e : plan.reads) {
    ASSERT_NE(e.col, failed) << "plan reads the failed disk";
  }
  std::set<Element> rebuilt;
  for (const auto& rec : plan.reconstructions) {
    const Equation& q = layout.equations()[static_cast<size_t>(rec.equation)];
    std::vector<uint8_t> buf(esize, 0);
    auto fold = [&](const Element& m) {
      if (m == rec.target) return;
      ASSERT_TRUE(readable.count(m))
          << "member (" << m.row << "," << m.col << ") not in the read set";
      xorops::xor_into(buf.data(), good.at(m), esize);
    };
    fold(q.parity);
    for (const Element& m : q.sources) fold(m);
    ASSERT_EQ(0, std::memcmp(buf.data(), good.at(rec.target), esize));
    rebuilt.insert(rec.target);
  }
  // Every element of the failed disk is rebuilt.
  EXPECT_EQ(rebuilt.size(), static_cast<size_t>(layout.rows()));
}

TEST_P(Recovery, ConventionalPlanIsExecutableAndCorrect) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  for (int f = 0; f < layout->cols(); ++f) {
    auto plan = plan_single_disk_recovery(*layout, f,
                                          RecoveryStrategy::kConventional);
    execute_and_check(*layout, plan, f);
  }
}

TEST_P(Recovery, OptimizedPlanIsExecutableAndCorrect) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  for (int f = 0; f < layout->cols(); ++f) {
    auto plan = plan_single_disk_recovery(*layout, f,
                                          RecoveryStrategy::kMinimalReads);
    execute_and_check(*layout, plan, f);
  }
}

TEST_P(Recovery, OptimizedNeverReadsMoreThanConventional) {
  auto layout = codes::make_layout(std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  for (int f = 0; f < layout->cols(); ++f) {
    auto conv = plan_single_disk_recovery(*layout, f,
                                          RecoveryStrategy::kConventional);
    auto opt = plan_single_disk_recovery(*layout, f,
                                         RecoveryStrategy::kMinimalReads);
    EXPECT_LE(opt.reads.size(), conv.reads.size()) << "disk " << f;
  }
}

class RecoverySavings : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Primes, RecoverySavings,
                         ::testing::Values(7, 11, 13));

TEST_P(RecoverySavings, DCodeAndXCodeApproachTheCitedQuarter) {
  // Xu et al.: optimal single-failure recovery for X-Code reads ~25% less
  // than the conventional approach; D-Code inherits this (paper §III-D).
  // Demand at least 15% average saving (the asymptotic value is reached
  // slowly in p).
  const int p = GetParam();
  for (const char* name : {"dcode", "xcode"}) {
    auto layout = codes::make_layout(name, p);
    double total_conv = 0, total_opt = 0;
    for (int f = 0; f < layout->cols(); ++f) {
      total_conv += static_cast<double>(
          plan_single_disk_recovery(*layout, f,
                                    RecoveryStrategy::kConventional)
              .reads.size());
      total_opt += static_cast<double>(
          plan_single_disk_recovery(*layout, f,
                                    RecoveryStrategy::kMinimalReads)
              .reads.size());
    }
    double saving = 1.0 - total_opt / total_conv;
    EXPECT_GE(saving, 0.15) << name << " p=" << p;
    EXPECT_LE(saving, 0.35) << name << " p=" << p;
  }
}

TEST(RecoveryEdge, InvalidDiskRejected) {
  auto layout = codes::make_layout("dcode", 7);
  EXPECT_THROW((void)plan_single_disk_recovery(
                   *layout, -1, RecoveryStrategy::kConventional),
               std::logic_error);
  EXPECT_THROW((void)plan_single_disk_recovery(
                   *layout, 7, RecoveryStrategy::kConventional),
               std::logic_error);
}

TEST(RecoveryEdge, ParityOnlyDiskRecovery) {
  // RDP's diagonal-parity disk: recovery = recompute every diagonal.
  auto layout = codes::make_layout("rdp", 7);
  auto plan = plan_single_disk_recovery(*layout, 7,
                                        RecoveryStrategy::kConventional);
  execute_and_check(*layout, plan, 7);
}

// --- the runtime rebuild reads exactly what the planner predicts ---------

int64_t survivor_reads(const Raid6Array& array, std::vector<int> lost) {
  int64_t n = 0;
  for (int d = 0; d < array.layout().cols(); ++d) {
    if (std::find(lost.begin(), lost.end(), d) == lost.end()) {
      n += array.disk(d).reads();
    }
  }
  return n;
}

TEST(RebuildReads, BackgroundSingleColumnReadsThePlannersSet) {
  const size_t esize = 64;
  const int64_t stripes = 6;
  for (int p : {5, 7, 11, 13}) {
    auto probe = codes::make_layout("dcode", p);
    for (int col = 0; col < probe->cols(); ++col) {
      SCOPED_TRACE("p=" + std::to_string(p) + " col=" + std::to_string(col));
      const RecoveryPlan plan = plan_single_disk_recovery(
          *probe, col, RecoveryStrategy::kMinimalReads);
      ArrayOptions opts;
      opts.background_rebuild = true;
      obs::Registry reg;
      Raid6Array array(codes::make_layout("dcode", p), esize, stripes, 2,
                       &reg, opts);
      array.add_hot_spares(1);
      Pcg32 rng(static_cast<uint64_t>(100 * p + col));
      std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
      rng.fill_bytes(blob.data(), blob.size());
      array.write(0, blob);

      const int64_t before = survivor_reads(array, {col});
      array.fail_disk(col);
      ASSERT_TRUE(array.wait_for_rebuild());
      EXPECT_EQ(survivor_reads(array, {col}) - before,
                stripes * static_cast<int64_t>(plan.reads.size()));
      std::vector<uint8_t> out(blob.size());
      array.read(0, out);
      EXPECT_EQ(out, blob);
    }
  }
}

TEST(RebuildReads, TwoColumnChainDecodeReadsEachSurvivorOnce) {
  const size_t esize = 64;
  const int64_t stripes = 6;
  const int p = 7;
  for (int a = 0; a < p; ++a) {
    for (int b = a + 1; b < p; ++b) {
      SCOPED_TRACE("lost " + std::to_string(a) + "," + std::to_string(b));
      obs::Registry reg;
      Raid6Array array(codes::make_layout("dcode", p), esize, stripes, 2,
                       &reg);
      Pcg32 rng(static_cast<uint64_t>(10 * a + b));
      std::vector<uint8_t> blob(static_cast<size_t>(array.capacity()));
      rng.fill_bytes(blob.data(), blob.size());
      array.write(0, blob);

      array.fail_disk(a);
      array.fail_disk(b);
      array.replace_disk(a);
      array.replace_disk(b);
      const int64_t before = survivor_reads(array, {a, b});
      array.rebuild();
      const int rows = array.layout().rows();
      EXPECT_EQ(survivor_reads(array, {a, b}) - before,
                stripes * (p - 2) * rows);
      EXPECT_EQ(array.scrub(), 0);
      std::vector<uint8_t> out(blob.size());
      array.read(0, out);
      EXPECT_EQ(out, blob);
    }
  }
}

}  // namespace
}  // namespace dcode::raid
