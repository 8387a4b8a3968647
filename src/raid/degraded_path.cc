// Raid6Array's degraded read: planner-driven, over reconstruct_stripe()
// when a whole stripe is needed. (Degraded writes run the one stripe
// write in raid6_array.cc.) Split from raid6_array.cc so the core policy
// file stays readable.
#include <algorithm>
#include <cstring>
#include <vector>

#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;

using ReadOp = StripeIoEngine::ReadOp;

void Raid6Array::read_degraded(OpScratch& x, int64_t first, int64_t last,
                               int64_t offset, std::span<uint8_t> out,
                               const std::vector<int>& failed) {
  const CodeLayout& layout = *layout_;
  const int64_t esize = static_cast<int64_t>(element_size_);
  const int64_t end = offset + static_cast<int64_t>(out.size());
  const int64_t dps = layout.data_count();
  // Follow the planner's per-element equation choices.
  IoPlan plan = planner_.plan_degraded_read(first,
                                            static_cast<int>(last - first + 1),
                                            failed);
  obs::Span span(
      obs::TraceLog::global(), "degraded_read",
      {{"offset", offset}, {"bytes", static_cast<int64_t>(out.size())},
       {"failed_disks", static_cast<int64_t>(failed.size())},
       {"plan_reads", plan.reads()},
       {"reconstructions", static_cast<int64_t>(plan.reconstructions.size())}});
  // The plan lists its reads and reconstructions stripe by stripe; each
  // stripe runs as one batch. A fully covered requested element is read
  // or rebuilt straight into the caller's buffer; every other element
  // the plan touches gets an element buffer, at most one stripe's worth.
  size_t a = 0;  // cursors into plan.accesses / plan.reconstructions
  size_t r = 0;
  int64_t eq_recs = 0;
  for (int64_t stripe = first / dps; stripe <= last / dps; ++stripe) {
    const int64_t lo = std::max(first, stripe * dps);
    const int64_t hi = std::min(last, (stripe + 1) * dps - 1);
    size_t a_end = a;
    while (a_end < plan.accesses.size() &&
           plan.accesses[a_end].stripe == stripe) {
      ++a_end;
    }
    size_t r_end = r;
    bool full_decode = false;
    for (; r_end < plan.reconstructions.size() &&
           plan.reconstructions[r_end].stripe == stripe;
         ++r_end) {
      full_decode = full_decode || plan.reconstructions[r_end].equation < 0;
    }
    if (full_decode) {
      // Unpeelable loss (EVENODD / liberation coupling): the plan reads
      // every survivor, which is exactly what one full-stripe decode
      // reads, so the stripe is decoded once and every requested element
      // served from it. The read path never writes back: scrub owns
      // durable repair.
      span.note("full_stripe_decode", {{"stripe", stripe}});
      StripeScratch& s = x.stripe();
      if (!reconstruct_stripe(stripe, s, StripeRead::kVerified)) {
        throw_unrecovered(stripe, s);
      }
      for (int64_t e = lo; e <= hi; ++e) {
        size_t eb, sb, len;
        overlay_range(e, offset, static_cast<int64_t>(out.size()), esize, &eb,
                      &sb, &len);
        std::memcpy(out.data() + sb, s.buf.at(map_.locate(e).element) + eb,
                    len);
      }
      a = a_end;
      r = r_end;
      continue;
    }
    std::fill(x.where.begin(), x.where.end(), nullptr);
    auto where = [&](const Element& e) -> uint8_t*& {
      return x.where[static_cast<size_t>(e.row * layout.cols() + e.col)];
    };
    size_t used = 0;
    auto buffer_of = [&](const Element& e) {
      uint8_t*& buf = where(e);
      if (buf != nullptr) return buf;
      const int di = layout.data_index(e.row, e.col);
      const int64_t g = stripe * dps + di;
      if (di >= 0 && g >= lo && g <= hi && g * esize >= offset &&
          (g + 1) * esize <= end) {
        buf = out.data() + (g * esize - offset);
      } else {
        buf = x.element(used++);
      }
      return buf;
    };

    x.rops.clear();
    for (; a < a_end; ++a) {
      const IoAccess& acc = plan.accesses[a];
      DCODE_ASSERT(!acc.is_write, "degraded read plan must not write");
      // Duplicate plan reads share a buffer but still count.
      x.rops.push_back({acc.disk, stripe, acc.element.row,
                        buffer_of(acc.element)});
    }
    engine_.read_batch(x.rops);

    for (; r < r_end; ++r) {
      const Reconstruction& rec = plan.reconstructions[r];
      const Equation& q =
          layout.equations()[static_cast<size_t>(rec.equation)];
      x.srcs.clear();
      auto fold = [&](const Element& m) {
        if (m == rec.target) return;
        DCODE_CHECK(where(m) != nullptr,
                    "planner promised this member was read");
        x.srcs.push_back(where(m));
      };
      fold(q.parity);
      for (const Element& m : q.sources) fold(m);
      xorops::xor_many(buffer_of(rec.target), x.srcs, element_size_);
      ++eq_recs;
    }

    for (int64_t e = lo; e <= hi; ++e) {
      const uint8_t* buf = where(map_.locate(e).element);
      DCODE_CHECK(buf != nullptr, "requested element missing from plan");
      size_t eb, sb, len;
      overlay_range(e, offset, static_cast<int64_t>(out.size()), esize, &eb,
                    &sb, &len);
      if (len < element_size_) std::memcpy(out.data() + sb, buf + eb, len);
    }
  }
  DCODE_ASSERT(a == plan.accesses.size() && r == plan.reconstructions.size(),
               "degraded read plan must run stripe by stripe");
  // Equation-based reconstructions (the fallback already counted its own
  // rebuilt elements inside reconstruct_stripe).
  metrics_.elements_reconstructed->inc(eq_recs);
}

}  // namespace dcode::raid
