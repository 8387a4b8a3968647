// The one stripe-reconstruction routine. Every path that recovers a
// stripe's lost or condemned elements runs reconstruct_stripe() and then
// writes back only what it owns: the stripe write's reconstruct route
// (a needed old value lost, or a sub-element write to a degraded
// stripe), the degraded read's full-stripe fallback, journal replay,
// write-path repair (clean/salvage), scrub's checksum channel and both
// rebuild drivers.
//
// The erasure set is the columns degraded for the stripe (failed, or
// above a rebuilding device's watermark) plus the live elements the
// checksum sidecar condemns. The caller picks how live elements are read
// (StripeRead). The verified modes classify nothing until verify-on-read
// condemns an element; then the stripe is re-read raw and every live
// element is classified, so the hot paths pay no hashing beyond
// verify-on-read itself.
//
// Repair order:
//  1. Condemned elements one equation at a time: an equation whose
//     members are all live and exactly one of them condemned rewrites
//     that member as the XOR of the others. The candidate must re-verify
//     against its sidecar record or it is rolled back — an equation that
//     holds an undetected wrong value would otherwise manufacture
//     garbage. Accepted elements are trusted by later equations, so
//     multi-element damage (a misdirected write's victim AND its target)
//     repairs iteratively.
//  2. Everything still erased is decoded jointly. Lost columns alone go
//     through the minimal-read plan's XOR folds (one column, any mode
//     but kRaw; only kMinimal also restricts its reads to that plan),
//     D-Code's chain decoder (two D-Code columns) or hybrid_decode; lost
//     columns plus condemned elements go through hybrid_decode. Every
//     condemned element must then re-verify, or all of them roll back and
//     the routine reports failure: a decode through an undetected bad
//     value never reaches a device.
#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "codes/dcode_decoder.h"
#include "codes/decoder.h"
#include "raid/raid6_array.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;

namespace {

bool is_condemned(IntegrityVerdict v) {
  return v != IntegrityVerdict::kOk && v != IntegrityVerdict::kUntracked;
}

size_t elem_index(const CodeLayout& layout, const Element& e) {
  return static_cast<size_t>(e.row) * static_cast<size_t>(layout.cols()) +
         static_cast<size_t>(e.col);
}

}  // namespace

Raid6Array::StripeScratch::StripeScratch(const CodeLayout& layout,
                                         size_t element_size)
    : buf(layout, element_size),
      suspect_at(static_cast<size_t>(layout.rows() * layout.cols()), -1),
      plans(static_cast<size_t>(layout.cols())) {}

bool Raid6Array::StripeScratch::lost(int col) const {
  return std::binary_search(lost_cols.begin(), lost_cols.end(), col);
}

bool Raid6Array::StripeScratch::condemned() const {
  return std::any_of(suspects.begin(), suspects.end(),
                     [](const Suspect& s) { return !s.repaired; });
}

const uint8_t* Raid6Array::StripeScratch::as_found(Element e) const {
  const int i = suspect_at[elem_index(buf.layout(), e)];
  return i < 0 ? buf.at(e)
               : found.data() + static_cast<size_t>(i) * buf.element_size();
}

bool Raid6Array::reconstruct_stripe(int64_t stripe, StripeScratch& x,
                                    StripeRead how, bool want_lost) {
  const CodeLayout& layout = *layout_;
  const size_t esize = element_size_;
  x.lost_cols.clear();
  for (int c = 0; c < layout.cols(); ++c) {
    if (disk_degraded_for_stripe(map_.physical_disk(stripe, c), stripe)) {
      x.lost_cols.push_back(c);
    }
  }
  auto disk_of = [&](const Element& e) {
    return map_.physical_disk(stripe, e.col);
  };
  for (const Suspect& s : x.suspects) {
    x.suspect_at[elem_index(layout, s.e)] = -1;
  }
  x.suspects.clear();
  x.found.clear();

  auto read_live = [&](bool verify) {
    x.rops.clear();
    for (int c = 0; c < layout.cols(); ++c) {
      if (x.lost(c)) continue;
      const int pd = map_.physical_disk(stripe, c);
      for (int r = 0; r < layout.rows(); ++r) {
        x.rops.push_back({pd, stripe, r, x.buf.at(r, c)});
      }
    }
    engine_.read_batch(x.rops, verify);
  };
  // One lost column decodes through the minimal-read plan's equations
  // (paper §III-D: each lost element is one XOR fold) whenever nothing is
  // left condemned. Journal replay keeps the joint decode: its stripe can
  // be torn, and which equations decode it decides what replay restores.
  const RecoveryPlan* plan = nullptr;
  if (x.lost_cols.size() == 1 && how != StripeRead::kRaw) {
    std::optional<RecoveryPlan>& p =
        x.plans[static_cast<size_t>(x.lost_cols.front())];
    if (!p) {
      p = plan_single_disk_recovery(layout, x.lost_cols.front(),
                                    RecoveryStrategy::kMinimalReads);
    }
    plan = &*p;
  }
  bool classify = how == StripeRead::kClassified;
  if (!classify) {
    try {
      if (how == StripeRead::kMinimal && plan != nullptr) {
        x.rops.clear();
        for (const Element& e : plan->reads) {
          x.rops.push_back({disk_of(e), stripe, e.row, x.buf.at(e)});
        }
        engine_.read_batch(x.rops);
      } else {
        read_live(/*verify=*/how != StripeRead::kRaw);
      }
    } catch (const ElementIntegrityError&) {
      // Judge every survivor, not one condemnation at a time.
      classify = true;
    }
  }
  if (classify) {
    read_live(/*verify=*/false);
    for (int c = 0; c < layout.cols(); ++c) {
      if (x.lost(c)) continue;
      const int pd = map_.physical_disk(stripe, c);
      for (int r = 0; r < layout.rows(); ++r) {
        const uint8_t* p = x.buf.at(r, c);
        const IntegrityVerdict v = engine_.classify_element(pd, stripe, r, p);
        if (!is_condemned(v)) continue;
        const Element e = codes::make_element(r, c);
        x.suspect_at[elem_index(layout, e)] =
            static_cast<int>(x.suspects.size());
        x.suspects.push_back({e, v, false});
        x.found.insert(x.found.end(), p, p + esize);
      }
    }
  }

  // Only bytes the sidecar vouches for are accepted; a rejected
  // candidate goes back to its bytes as read.
  auto accept = [&](const Suspect& s) {
    return !is_condemned(engine_.classify_element(disk_of(s.e), stripe,
                                                  s.e.row, x.buf.at(s.e)));
  };
  auto roll_back = [&](const Suspect& s) {
    std::memcpy(x.buf.at(s.e), x.as_found(s.e), esize);
  };

  // 1. One equation at a time.
  int64_t repaired = 0;
  for (bool progress = !x.suspects.empty(); progress;) {
    progress = false;
    for (const Equation& q : layout.equations()) {
      Suspect* target = nullptr;
      int condemned = 0;
      bool usable = true;
      auto consider = [&](const Element& m) {
        if (x.lost(m.col)) {
          usable = false;
          return;
        }
        const int i = x.suspect_at[elem_index(layout, m)];
        if (i >= 0 && !x.suspects[static_cast<size_t>(i)].repaired) {
          target = &x.suspects[static_cast<size_t>(i)];
          ++condemned;
        }
      };
      consider(q.parity);
      for (const Element& m : q.sources) consider(m);
      if (!usable || condemned != 1) continue;
      x.srcs.clear();
      if (q.parity != target->e) x.srcs.push_back(x.buf.at(q.parity));
      for (const Element& m : q.sources) {
        if (m != target->e) x.srcs.push_back(x.buf.at(m));
      }
      xorops::xor_many(x.buf.at(target->e), x.srcs, esize);
      if (!accept(*target)) {
        roll_back(*target);
        continue;
      }
      target->repaired = true;
      ++repaired;
      progress = true;
    }
  }

  // 2. Jointly, whatever is still erased.
  const bool condemned = x.condemned();
  if (plan != nullptr && !condemned) {
    if (want_lost) {
      for (const Reconstruction& rec : plan->reconstructions) {
        const Equation& q =
            layout.equations()[static_cast<size_t>(rec.equation)];
        x.srcs.clear();
        if (q.parity != rec.target) x.srcs.push_back(x.buf.at(q.parity));
        for (const Element& m : q.sources) {
          if (m != rec.target) x.srcs.push_back(x.buf.at(m));
        }
        xorops::xor_many(x.buf.at(rec.target), x.srcs, esize);
      }
      repaired += layout.rows();
    }
    metrics_.elements_reconstructed->inc(repaired);
    return true;
  }
  x.erased.clear();
  if (want_lost || condemned) {
    x.erased = codes::elements_of_disks(layout, x.lost_cols);
  }
  for (const Suspect& s : x.suspects) {
    if (!s.repaired) x.erased.push_back(s.e);
  }
  bool ok = true;
  if (!x.erased.empty()) {
    ok = !condemned && x.lost_cols.size() == 2 && layout.name() == "dcode"
             ? codes::dcode_decode_two_disks(x.buf, x.lost_cols[0],
                                             x.lost_cols[1])
                   .success
             : codes::hybrid_decode(x.buf, x.erased).success;
    for (const Suspect& s : x.suspects) {
      ok = ok && (s.repaired || accept(s));
    }
    if (ok) {
      for (Suspect& s : x.suspects) s.repaired = true;
      repaired += static_cast<int64_t>(x.erased.size());
    } else {
      for (const Suspect& s : x.suspects) {
        if (!s.repaired) roll_back(s);
      }
    }
  }
  metrics_.elements_reconstructed->inc(repaired);
  return ok;
}

void Raid6Array::throw_unrecovered(int64_t stripe,
                                   const StripeScratch& x) const {
  for (const Suspect& s : x.suspects) {
    if (!s.repaired) {
      throw ElementIntegrityError(map_.physical_disk(stripe, s.e.col), stripe,
                                  s.e.row, s.verdict);
    }
  }
  DCODE_CHECK(false, "stripe unrecoverable (more than two failures)");
}

}  // namespace dcode::raid
