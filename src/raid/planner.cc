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

void plan_stripe_write(const CodeLayout& layout,
                       std::span<const Element> written,
                       std::span<const Element> partial,
                       std::span<const int> lost_cols, WritePolicy policy,
                       StripeWritePlan& plan) {
  using Cell = StripeWritePlan::Cell;
  using Method = StripeWritePlan::Method;
  const size_t cells = static_cast<size_t>(layout.rows() * layout.cols());
  auto at = [&](const Element& e) {
    return static_cast<size_t>(e.row * layout.cols() + e.col);
  };
  auto lost = [&](const Element& e) {
    return std::find(lost_cols.begin(), lost_cols.end(), e.col) !=
           lost_cols.end();
  };
  auto equation = [&](size_t k) -> const Equation& {
    return layout.equations()[static_cast<size_t>(plan.closure[k])];
  };

  plan.cell.assign(cells, Cell::kUntouched);
  plan.slot.assign(cells, -1);
  for (const Element& e : written) plan.cell[at(e)] = Cell::kWritten;
  for (const Element& e : partial) plan.cell[at(e)] = Cell::kWrittenPartial;
  dirty_parity_closure(layout, written, plan.closure);
  const size_t c = plan.closure.size();
  for (size_t k = 0; k < c; ++k) {
    plan.cell[at(equation(k).parity)] = Cell::kDirty;
    plan.slot[at(equation(k).parity)] = static_cast<int>(k);
  }
  // An equation's delta is computable when every written data element it
  // reaches, directly or through dirty parities, has its old value live.
  plan.deltaok_.assign(c, 1);
  for (size_t k = 0; k < c; ++k) {
    for (const Element& s : equation(k).sources) {
      const Cell role = plan.cell[at(s)];
      if (role == Cell::kDirty) {
        plan.deltaok_[k] &=
            plan.deltaok_[static_cast<size_t>(plan.slot[at(s)])];
      } else if (role != Cell::kUntouched && lost(s)) {
        plan.deltaok_[k] = 0;
      }
    }
  }

  // One candidate: RMW wherever possible when `prefer_rmw`, else RCW
  // everywhere. Consumers follow their dirty parity sources in
  // topological order, so a backward pass settles which parities and
  // deltas each needs. Returns false when a needed old value is lost.
  auto evaluate = [&](bool prefer_rmw) {
    plan.method.assign(c, Method::kSkip);
    plan.delta.assign(c, 0);
    plan.needed_.assign(c, 0);
    plan.mark_.assign(cells, 0);
    bool feasible = true;
    auto read = [&](const Element& e, uint8_t kind) {
      feasible = feasible && !lost(e);
      plan.mark_[at(e)] = kind;
    };
    for (size_t k = c; k-- > 0;) {
      const Equation& q = equation(k);
      if (!lost(q.parity)) plan.needed_[k] = 1;
      if (plan.needed_[k]) {
        if (prefer_rmw && plan.deltaok_[k] && !lost(q.parity)) {
          plan.method[k] = Method::kReadModifyWrite;
          plan.delta[k] = 1;
          read(q.parity, 2);
        } else {
          plan.method[k] = Method::kReconstructWrite;
          for (const Element& s : q.sources) {
            const Cell role = plan.cell[at(s)];
            if (role == Cell::kDirty) {
              plan.needed_[static_cast<size_t>(plan.slot[at(s)])] = 1;
            } else if (role != Cell::kWritten) {
              read(s, 1);  // untouched, or a partial element's old bytes
            }
          }
        }
      }
      if (!plan.delta[k]) continue;
      for (const Element& s : q.sources) {
        const Cell role = plan.cell[at(s)];
        if (role == Cell::kDirty) {
          plan.delta[static_cast<size_t>(plan.slot[at(s)])] = 1;
        } else if (role != Cell::kUntouched) {
          read(s, 1);
        }
      }
    }
    // A pure read-modify-write of a healthy stripe reads its old
    // parities after the data writes. Anything else reads first: an RCW
    // may consume a parity the RMW updates, and on a degraded stripe a
    // condemned old parity must be caught (and repaired from the other
    // survivors) before the stripe is mid-update.
    const bool pure =
        lost_cols.empty() &&
        std::none_of(plan.method.begin(), plan.method.end(),
                     [](Method m) { return m == Method::kReconstructWrite; });
    plan.reads.clear();
    plan.parity_reads.clear();
    for (int r = 0; r < layout.rows(); ++r) {
      for (int col = 0; col < layout.cols(); ++col) {
        const Element e = codes::make_element(r, col);
        const uint8_t kind = plan.mark_[at(e)];
        if (kind == 0) continue;
        (kind == 2 && pure ? plan.parity_reads : plan.reads).push_back(e);
      }
    }
    return feasible;
  };

  plan.writes.clear();
  for (const Element& e : written) {
    if (!lost(e)) plan.writes.push_back(e);
  }
  const size_t data_writes = plan.writes.size();
  for (size_t k = 0; k < c; ++k) {
    if (!lost(equation(k).parity)) plan.writes.push_back(equation(k).parity);
  }
  std::sort(plan.writes.begin() + static_cast<std::ptrdiff_t>(data_writes),
            plan.writes.end());

  plan.rewrite = false;
  if (!lost_cols.empty() && !partial.empty()) {
    plan.rewrite = true;
  } else if (policy != WritePolicy::kAuto) {
    plan.rewrite = !evaluate(policy == WritePolicy::kReadModifyWrite);
  } else if (lost_cols.empty()) {
    // Healthy: RMW reads every written element and every dirty parity,
    // RCW the untouched or partially covered sources of the dirty
    // equations; both write the same elements.
    plan.mark_.assign(cells, 0);
    size_t rcw_reads = 0;
    for (size_t k = 0; k < c; ++k) {
      for (const Element& s : equation(k).sources) {
        const Cell role = plan.cell[at(s)];
        if ((role == Cell::kUntouched || role == Cell::kWrittenPartial) &&
            !plan.mark_[at(s)]) {
          plan.mark_[at(s)] = 1;
          ++rcw_reads;
        }
      }
    }
    evaluate(/*prefer_rmw=*/rcw_reads >= written.size() + c);
  } else {
    // RMW-first is feasible whenever RCW-everywhere is: it reads a
    // subset of what RCW needs from lost columns.
    const bool rcw_ok = evaluate(/*prefer_rmw=*/false);
    const int64_t rcw_cost = plan.cost();
    plan.rewrite = !evaluate(/*prefer_rmw=*/true);
    if (!plan.rewrite && rcw_ok && rcw_cost < plan.cost()) {
      evaluate(/*prefer_rmw=*/false);
    }
  }
  if (plan.rewrite) {
    // Every dirty parity is recomputed from the reconstructed stripe.
    plan.method.assign(c, Method::kReconstructWrite);
    plan.delta.assign(c, 0);
    plan.reads.clear();
    plan.parity_reads.clear();
    for (int r = 0; r < layout.rows(); ++r) {
      for (int col = 0; col < layout.cols(); ++col) {
        const Element e = codes::make_element(r, col);
        if (!lost(e)) plan.reads.push_back(e);
      }
    }
  }
}

IoPlan IoPlanner::plan_write(int64_t start, int len,
                             WritePolicy policy) const {
  return plan_writes(start, len, {}, policy);
}

IoPlan IoPlanner::plan_degraded_write(int64_t start, int len,
                                      std::span<const int> failed_disks) const {
  return plan_writes(start, len, failed_disks, WritePolicy::kAuto);
}

IoPlan IoPlanner::plan_writes(int64_t start, int len,
                              std::span<const int> failed_disks,
                              WritePolicy policy) const {
  const CodeLayout& layout = map_->layout();
  IoPlan plan;
  StripeWritePlan sw;
  std::vector<int> lost_cols;
  for (const StripeSlice& slice : slice_by_stripe(*map_, start, len)) {
    const int64_t s = slice.stripe;
    lost_cols.clear();
    for (int c = 0; c < layout.cols(); ++c) {
      if (std::find(failed_disks.begin(), failed_disks.end(),
                    map_->physical_disk(s, c)) != failed_disks.end()) {
        lost_cols.push_back(c);
      }
    }
    plan_stripe_write(layout, slice.elements, {}, lost_cols, policy, sw);
    auto emit = [&](const Element& e, bool is_write) {
      plan.accesses.push_back(
          IoAccess{s, e, map_->physical_disk(s, e.col), is_write});
    };
    for (const Element& e : sw.reads) emit(e, false);
    for (const Element& e : sw.parity_reads) emit(e, false);
    for (const Element& e : sw.writes) emit(e, true);
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
