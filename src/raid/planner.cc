#include "raid/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace dcode::raid {

namespace {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::make_element;

// Requested logical range grouped by stripe, preserving logical order.
struct StripeSlice {
  int64_t stripe;
  std::vector<Element> elements;
};

std::vector<StripeSlice> slice_by_stripe(const AddressMap& map, int64_t start,
                                         int len) {
  DCODE_CHECK(start >= 0 && len > 0, "invalid logical range");
  std::vector<StripeSlice> slices;
  for (int64_t g = start; g < start + len; ++g) {
    auto loc = map.locate(g);
    if (slices.empty() || slices.back().stripe != loc.stripe) {
      slices.push_back(StripeSlice{loc.stripe, {}});
    }
    slices.back().elements.push_back(loc.element);
  }
  return slices;
}

// A dry-run peeling schedule for a set of failed columns: for every
// recoverable lost element, the equation that rebuilds it and its
// position in peeling order (dependencies always come earlier). Elements
// peeling cannot reach keep step -1.
struct PeelSchedule {
  // Indexed by cell (row * cols + col): equation used, or -1.
  std::vector<int> equation;
  // Resolution order as cell indices.
  std::vector<int> order;
  bool complete = false;  // every lost element reachable
};

PeelSchedule build_peel_schedule(const CodeLayout& layout,
                                 const std::vector<int>& failed_cols) {
  const size_t ncells = static_cast<size_t>(layout.rows()) * layout.cols();
  auto cell = [&](Element e) {
    return static_cast<size_t>(e.row) * layout.cols() + e.col;
  };

  std::vector<char> lost(ncells, 0);
  size_t remaining = 0;
  for (int c : failed_cols) {
    for (int r = 0; r < layout.rows(); ++r) {
      lost[cell(make_element(r, c))] = 1;
      ++remaining;
    }
  }

  PeelSchedule sched;
  sched.equation.assign(ncells, -1);
  const auto& eqs = layout.equations();
  std::vector<int> missing(eqs.size(), 0);
  for (size_t qi = 0; qi < eqs.size(); ++qi) {
    if (lost[cell(eqs[qi].parity)]) ++missing[qi];
    for (const Element& e : eqs[qi].sources) {
      if (lost[cell(e)]) ++missing[qi];
    }
  }

  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (size_t qi = 0; qi < eqs.size(); ++qi) {
      if (missing[qi] != 1) continue;
      const Equation& q = eqs[qi];
      Element target = q.parity;
      if (!lost[cell(target)]) {
        for (const Element& e : q.sources) {
          if (lost[cell(e)]) {
            target = e;
            break;
          }
        }
      }
      lost[cell(target)] = 0;
      sched.equation[cell(target)] = static_cast<int>(qi);
      sched.order.push_back(static_cast<int>(cell(target)));
      for (int mq : layout.equations_containing(target.row, target.col)) {
        --missing[static_cast<size_t>(mq)];
      }
      --remaining;
      progress = true;
    }
  }
  sched.complete = remaining == 0;
  return sched;
}

}  // namespace

void dirty_parity_closure(const CodeLayout& layout,
                          std::span<const Element> written,
                          std::vector<int>& dirty) {
  dirty.clear();
  // Breadth-first: the written elements, then the parity of every
  // equation found dirty (`dirty` doubles as the queue).
  auto visit = [&](const Element& x) {
    for (int qi : layout.equations_containing(x.row, x.col)) {
      const Equation& q = layout.equations()[static_cast<size_t>(qi)];
      if (q.parity == x) continue;  // x *stores* this equation
      if (std::find(dirty.begin(), dirty.end(), qi) == dirty.end()) {
        dirty.push_back(qi);
      }
    }
  };
  for (const Element& x : written) visit(x);
  for (size_t i = 0; i < dirty.size(); ++i) {
    visit(layout.equations()[static_cast<size_t>(dirty[i])].parity);
  }
  // Topological order (the layout's encode order restricted to dirty).
  std::sort(dirty.begin(), dirty.end(), [&](int a, int b) {
    return layout.encode_rank(a) < layout.encode_rank(b);
  });
}

std::vector<int> dirty_parity_closure(const CodeLayout& layout,
                                      std::span<const Element> written) {
  std::vector<int> dirty;
  dirty_parity_closure(layout, written, dirty);
  return dirty;
}

IoPlan IoPlanner::plan_read(int64_t start, int len) const {
  IoPlan plan;
  plan.accesses.reserve(static_cast<size_t>(len));
  for (int64_t g = start; g < start + len; ++g) {
    auto loc = map_->locate(g);
    plan.accesses.push_back(
        IoAccess{loc.stripe, loc.element, loc.disk, /*is_write=*/false});
  }
  return plan;
}

IoPlan IoPlanner::plan_write(int64_t start, int len,
                             WritePolicy policy) const {
  const CodeLayout& layout = map_->layout();
  IoPlan plan;

  for (const StripeSlice& slice : slice_by_stripe(*map_, start, len)) {
    std::set<Element> written(slice.elements.begin(), slice.elements.end());
    std::vector<int> dirty = dirty_parity_closure(layout, slice.elements);

    std::set<Element> dirty_parities;
    for (int qi : dirty)
      dirty_parities.insert(layout.equations()[static_cast<size_t>(qi)].parity);

    // RCW read set: untouched sources of every dirty equation.
    std::set<Element> rcw_reads;
    for (int qi : dirty) {
      for (const Element& e :
           layout.equations()[static_cast<size_t>(qi)].sources) {
        if (!written.count(e) && !dirty_parities.count(e)) rcw_reads.insert(e);
      }
    }

    const size_t rmw_cost = 2 * (written.size() + dirty_parities.size());
    const size_t rcw_cost =
        rcw_reads.size() + written.size() + dirty_parities.size();

    bool use_rmw = policy == WritePolicy::kReadModifyWrite ||
                   (policy == WritePolicy::kAuto && rmw_cost <= rcw_cost);

    auto emit = [&](const Element& e, bool is_write) {
      plan.accesses.push_back(IoAccess{
          slice.stripe, e, map_->physical_disk(slice.stripe, e.col),
          is_write});
    };

    if (use_rmw) {
      for (const Element& e : written) emit(e, false);
      for (const Element& e : dirty_parities) emit(e, false);
    } else {
      for (const Element& e : rcw_reads) emit(e, false);
    }
    for (const Element& e : written) emit(e, true);
    for (const Element& e : dirty_parities) emit(e, true);
  }
  return plan;
}

IoPlan IoPlanner::plan_degraded_write(int64_t start, int len,
                                      std::span<const int> failed_disks) const {
  if (failed_disks.empty()) return plan_write(start, len);
  const CodeLayout& layout = map_->layout();
  IoPlan plan;

  auto is_failed = [&](int disk) {
    return std::find(failed_disks.begin(), failed_disks.end(), disk) !=
           failed_disks.end();
  };

  for (const StripeSlice& slice : slice_by_stripe(*map_, start, len)) {
    const int64_t s = slice.stripe;
    auto disk_of = [&](const Element& e) {
      return map_->physical_disk(s, e.col);
    };

    // Does this stripe involve a failed disk at all (data touched, or any
    // parity hosted there)?
    bool stripe_degraded = false;
    for (int c = 0; c < layout.cols() && !stripe_degraded; ++c) {
      if (is_failed(map_->physical_disk(s, c))) stripe_degraded = true;
    }
    if (!stripe_degraded) {
      // Healthy stripe: delegate to the normal per-stripe write plan.
      IoPlan sub = plan_write(
          static_cast<int64_t>(s) * layout.data_count() +
              layout.data_index(slice.elements.front().row,
                                slice.elements.front().col),
          static_cast<int>(slice.elements.size()));
      plan.accesses.insert(plan.accesses.end(), sub.accesses.begin(),
                           sub.accesses.end());
      continue;
    }

    // Stripe-rewrite: read all surviving cells, write touched surviving
    // data plus every surviving parity.
    std::set<Element> touched(slice.elements.begin(), slice.elements.end());
    for (int r = 0; r < layout.rows(); ++r) {
      for (int c = 0; c < layout.cols(); ++c) {
        Element e = make_element(r, c);
        if (is_failed(disk_of(e))) continue;
        plan.accesses.push_back(IoAccess{s, e, disk_of(e), false});
        bool write_back = layout.is_parity(r, c) || touched.count(e) > 0;
        if (write_back) {
          plan.accesses.push_back(IoAccess{s, e, disk_of(e), true});
        }
      }
    }
  }
  return plan;
}

IoPlan IoPlanner::plan_degraded_read(int64_t start, int len,
                                     std::span<const int> failed_disks) const {
  const CodeLayout& layout = map_->layout();
  IoPlan plan;

  auto is_failed = [&](int disk) {
    return std::find(failed_disks.begin(), failed_disks.end(), disk) !=
           failed_disks.end();
  };

  for (const StripeSlice& slice : slice_by_stripe(*map_, start, len)) {
    const int64_t s = slice.stripe;
    auto disk_of = [&](const Element& e) {
      return map_->physical_disk(s, e.col);
    };

    // Elements whose bytes the plan already has (read or reconstructed).
    std::set<Element> available;
    std::vector<Element> lost;
    for (const Element& e : slice.elements) {
      if (is_failed(disk_of(e))) {
        lost.push_back(e);
      } else if (available.insert(e).second) {
        plan.accesses.push_back(IoAccess{s, e, disk_of(e), false});
      }
    }

    // Lazily-built peel schedule for this stripe's failed columns (used
    // when single-equation reconstruction is impossible).
    std::optional<PeelSchedule> sched;
    auto schedule = [&]() -> const PeelSchedule& {
      if (!sched) {
        std::vector<int> failed_cols;
        for (int c = 0; c < layout.cols(); ++c) {
          if (is_failed(map_->physical_disk(s, c))) failed_cols.push_back(c);
        }
        sched = build_peel_schedule(layout, failed_cols);
      }
      return *sched;
    };
    auto cell_of = [&](Element x) {
      return static_cast<size_t>(x.row) * layout.cols() + x.col;
    };

    // Chain resolution: read the survivors an equation needs, recursing
    // into lost members first (their schedule steps precede ours).
    auto resolve_chain = [&](auto&& self, Element x) -> void {
      if (available.count(x)) return;
      int qi = schedule().equation[cell_of(x)];
      DCODE_ASSERT(qi >= 0, "chain resolution on an unpeelable element");
      const Equation& q = layout.equations()[static_cast<size_t>(qi)];
      auto need = [&](const Element& m) {
        if (m == x || available.count(m)) return;
        if (is_failed(disk_of(m))) {
          self(self, m);
        } else {
          available.insert(m);
          plan.accesses.push_back(IoAccess{s, m, disk_of(m), false});
        }
      };
      need(q.parity);
      for (const Element& m : q.sources) need(m);
      plan.reconstructions.push_back(Reconstruction{s, x, qi});
      available.insert(x);
    };

    bool full_decode_done = false;
    for (const Element& e : lost) {
      if (full_decode_done) break;
      if (available.count(e)) continue;  // already rebuilt en passant

      // Candidate equations: `e` must be their only member on a failed disk.
      int best_eq = -1;
      size_t best_extra = SIZE_MAX;
      for (int qi : layout.equations_containing(e.row, e.col)) {
        const Equation& q = layout.equations()[static_cast<size_t>(qi)];
        bool usable = true;
        size_t extra = 0;
        auto consider = [&](const Element& m) {
          if (m == e) return;
          if (is_failed(disk_of(m)) && !available.count(m)) {
            usable = false;
          } else if (!available.count(m)) {
            ++extra;
          }
        };
        consider(q.parity);
        for (const Element& m : q.sources) consider(m);
        if (usable && extra < best_extra) {
          best_extra = extra;
          best_eq = qi;
        }
      }

      if (best_eq < 0) {
        // Every equation of `e` crosses another failed disk. If the code
        // peels, rebuild exactly the recovery-chain prefix `e` depends on.
        if (schedule().equation[cell_of(e)] >= 0) {
          resolve_chain(resolve_chain, e);
          continue;
        }
        // Unpeelable (EVENODD / liberation coupling): fall back to a full
        // stripe decode — read all surviving elements not yet in the
        // plan; everything lost becomes available.
        for (int r = 0; r < layout.rows(); ++r) {
          for (int c = 0; c < layout.cols(); ++c) {
            Element m = codes::make_element(r, c);
            if (is_failed(disk_of(m))) continue;
            if (available.insert(m).second) {
              plan.accesses.push_back(IoAccess{s, m, disk_of(m), false});
            }
          }
        }
        for (const Element& l : lost) {
          if (!available.count(l)) {
            plan.reconstructions.push_back(Reconstruction{s, l, -1});
            available.insert(l);
          }
        }
        full_decode_done = true;
        continue;
      }

      const Equation& q = layout.equations()[static_cast<size_t>(best_eq)];
      auto pull = [&](const Element& m) {
        if (m == e || available.count(m)) return;
        available.insert(m);
        plan.accesses.push_back(IoAccess{s, m, disk_of(m), false});
      };
      pull(q.parity);
      for (const Element& m : q.sources) pull(m);
      plan.reconstructions.push_back(Reconstruction{s, e, best_eq});
      available.insert(e);
    }
  }
  return plan;
}

}  // namespace dcode::raid
