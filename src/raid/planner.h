// IoPlanner: logical operations -> element-level I/O plans.
//
// This is where the codes' I/O-load differences actually arise:
//
//  * plan_read — one read per requested element; parity disks contribute
//    nothing (the horizontal codes' normal-read weakness).
//  * plan_write / plan_degraded_write — one plan_stripe_write() decision
//    per stripe, the same one the byte-level array executes. It computes
//    the *dirty parity closure* (a data update dirties its parities; a
//    dirty parity dirties any parity whose equation contains it, e.g.
//    RDP's diagonals covering the row parities and HDP's anti-diagonals
//    covering the horizontal parities), then takes the cheaper of
//      RMW (read-modify-write): read old data + old dirty parities,
//          write new data + new parities;
//      RCW (reconstruct-write): read the untouched sources of every dirty
//          equation, recompute parities outright (a full-stripe write
//          reads nothing).
//    Sharing a horizontal parity across consecutive elements is exactly
//    what makes D-Code / RDP / H-Code cheap here and X-Code / HDP dear
//    (paper Figure 5). On a stripe with lost columns the same choice is
//    made per equation (see plan_stripe_write).
//  * plan_degraded_read — surviving requested elements are read directly;
//    each lost one picks the reconstruction equation with the smallest
//    number of *additional* reads given everything already in the plan
//    (greedy, in logical order). Consecutive lost elements sharing a
//    horizontal parity re-use each other's reads — D-Code's degraded-read
//    edge over X-Code (paper Figure 7).
//
// Counting convention: one access = one element read or written, the
// papers' unit. `times` multipliers from <S, L, T> tuples are applied by
// the simulator when accounting stats, not by expanding plans.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "raid/address_map.h"
#include "raid/io_plan.h"

namespace dcode::raid {

enum class WritePolicy { kAuto, kReadModifyWrite, kReconstructWrite };

class IoPlanner {
 public:
  explicit IoPlanner(const AddressMap& map) : map_(&map) {}

  // Normal-mode read of `len` consecutive logical data elements.
  IoPlan plan_read(int64_t start, int len) const;

  // Healthy-mode partial stripe write of `len` consecutive elements.
  IoPlan plan_write(int64_t start, int len,
                    WritePolicy policy = WritePolicy::kAuto) const;

  // Partial stripe write while disks are failed: plan_stripe_write() with
  // each stripe's lost columns, as the byte-level array runs it. (The
  // paper evaluates degraded *reads* only; this carries its argument over
  // to degraded writes.)
  IoPlan plan_degraded_write(int64_t start, int len,
                             std::span<const int> failed_disks) const;

  // Read under failed disks. Single-disk failures use per-element greedy
  // equation selection. With two failed disks, elements whose every
  // equation also crosses the other failed disk are rebuilt through
  // *recovery chains* (the §III-C structure): the planner computes the
  // stripe's peeling schedule and pulls in exactly the chain prefix the
  // requested elements depend on — far less I/O than decoding the whole
  // stripe. Codes whose double failures do not peel (EVENODD,
  // liberation) fall back to a full-stripe decode.
  IoPlan plan_degraded_read(int64_t start, int len,
                            std::span<const int> failed_disks) const;

 private:
  IoPlan plan_writes(int64_t start, int len, std::span<const int> failed_disks,
                     WritePolicy policy) const;

  const AddressMap* map_;
};

// One stripe's write, decided by plan_stripe_write(). Vectors are reused
// across calls, so a warm decision allocates nothing.
struct StripeWritePlan {
  // How a dirty equation gets its new parity value.
  enum class Method : uint8_t {
    kSkip,  // parity on a lost column and no other equation needs it
    kReadModifyWrite,   // old parity ^ the delta of its dirty sources
    kReconstructWrite,  // XOR of its sources' new values
  };
  // What the write does to each cell (row * cols + col).
  enum class Cell : uint8_t { kUntouched, kWritten, kWrittenPartial, kDirty };

  std::vector<int> closure;      // dirty equations, topological order
  std::vector<Method> method;    // per closure entry
  std::vector<char> delta;       // per closure entry: its delta is folded
                                 // into a read-modify-write
  std::vector<Cell> cell;        // per cell
  std::vector<int> slot;         // per cell: closure entry of the parity
                                 // stored there, or -1
  // Old values read before any write, then old parities read after the
  // data writes (a pure read-modify-write of a healthy stripe keeps that
  // order, so the parity pre-read also catches a data write misdirected
  // onto the stripe's own parity; a degraded stripe reads everything
  // first, so a condemned parity is repaired before the stripe is
  // mid-update). Both in row-major order.
  std::vector<codes::Element> reads;
  std::vector<codes::Element> parity_reads;
  // Written data on live columns, then dirty parities on live columns.
  std::vector<codes::Element> writes;
  // A needed old value is lost (or a sub-element write meets a degraded
  // stripe): reconstruct the stripe, then recompute every dirty parity
  // from it (reads = every live element).
  bool rewrite = false;

  int64_t cost() const {
    return static_cast<int64_t>(reads.size() + parity_reads.size() +
                                writes.size());
  }

 private:
  friend void plan_stripe_write(const codes::CodeLayout& layout,
                                std::span<const codes::Element> written,
                                std::span<const codes::Element> partial,
                                std::span<const int> lost_cols,
                                WritePolicy policy, StripeWritePlan& plan);

  // Evaluation scratch.
  std::vector<char> deltaok_;  // per closure entry: delta computable
  std::vector<char> needed_;   // per closure entry: new value required
  std::vector<uint8_t> mark_;  // per cell: read up front (1), parity read (2)
};

// The one write decision, shared by IoPlanner and Raid6Array. `written`
// are the stripe's written data elements, `partial` those only partly
// covered (byte-addressed writes; the planner passes none), `lost_cols`
// the columns degraded for this stripe, ascending.
//
//  * Healthy stripe: kAuto takes RMW unless RCW is strictly cheaper (ties
//    keep RMW); RCW over a full stripe reads nothing.
//  * Lost columns: RMW for every dirty equation whose parity is live and
//    whose old values are all live; RCW from the surviving sources plus
//    the new data for the others; a parity on a lost column is skipped
//    unless an RCW needs its new value. kAuto compares that against RCW
//    for every equation, ties again keeping the first. When a needed old
//    value is itself lost the plan is the rewrite. So is a sub-element
//    write to such a stripe: the element-unit cost model cannot price a
//    partial element whose old bytes may be lost, and the rewrite's full
//    read also repairs any condemned survivor the stripe holds.
void plan_stripe_write(const codes::CodeLayout& layout,
                       std::span<const codes::Element> written,
                       std::span<const codes::Element> partial,
                       std::span<const int> lost_cols, WritePolicy policy,
                       StripeWritePlan& plan);

// The set of parity equations a write to `written` data elements must
// refresh, in topological order (closure over parity-in-parity coverage).
// The out-parameter form reuses the caller's storage (the array's RMW
// path); the returning form serves tests and the update-complexity bench.
void dirty_parity_closure(const codes::CodeLayout& layout,
                          std::span<const codes::Element> written,
                          std::vector<int>& dirty);
std::vector<int> dirty_parity_closure(const codes::CodeLayout& layout,
                                      std::span<const codes::Element> written);

}  // namespace dcode::raid
