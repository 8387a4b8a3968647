// Raid6Array's rebuild: one per-stripe reconstruction routine and its two
// drivers, the background worker behind a promoted spare and the
// synchronous rebuild().
//
// rebuild_stripe() takes the stripe's erasure set — the columns whose
// device is failed or above its rebuild watermark — and decodes it the
// cheapest way the code allows:
//  * one lost column: the planner's minimal-read recovery plan (paper
//    §III-D, plan_single_disk_recovery with kMinimalReads), computed once
//    per column and pass. Only the plan's survivor elements are read (26
//    of 42 at p=7); each lost element is one XOR fold of its equation;
//  * two lost columns of a D-Code stripe: the §III-C chain decoder;
//  * anything else: hybrid_decode over every survivor.
// A survivor that verify-on-read condemns joins the erasure set: the
// stripe's survivors are re-read raw and classified against the sidecar,
// every condemned element is decoded together with the lost columns,
// re-verified against its recorded checksum and written back beside the
// rebuilt column. A corrupt source is repaired in the same pass instead
// of aborting it.
//
// Background protocol (the rebuild watermark):
//  * a promoted spare starts with readable_stripes == 0 — every stripe is
//    degraded-for-stripe on it, so reads avoid it and writes skip it;
//  * the worker walks stripes in order under the per-stripe lock:
//    rebuild_stripe(), then CAS the watermark s -> s+1 *inside the
//    lock* — a foreground writer that grabs the lock next already sees
//    the stripe as healthy and RMWs through the spare;
//  * stripes below the watermark serve normal (fast-path) reads, stripes
//    at/above it serve degraded reads — foreground I/O never blocks on
//    the whole rebuild, only on the single stripe the worker holds;
//  * the CAS fails if the device re-failed and was re-promoted mid-pass
//    (watermark reset to 0): the pass keeps going but stops advancing
//    that device, and the between-pass rescan starts it over;
//  * a pass that cannot continue (power loss, survivors dying faster than
//    retries, an erasure set beyond the code) stands down: it counts
//    raid.rebuild.pass_aborts{reason} and emits a rebuild.stand_down
//    trace event naming the disk, stripe and reason.
//
// One worker thread at a time; promotions during a pass are picked up by
// the rescan under rebuild_mu_. The token bucket paces the walk so
// rebuild bandwidth can be capped below foreground throughput.
#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "codes/dcode_decoder.h"
#include "codes/decoder.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"
#include "raid/recovery.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::Stripe;

using ReadOp = StripeIoEngine::ReadOp;
using WriteOp = StripeIoEngine::WriteOp;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Observes wall time into a latency histogram on scope exit (including
// unwinds — a failed rebuild's latency is still a latency).
class LatencyTimer {
 public:
  explicit LatencyTimer(obs::Histogram* h) : h_(h), t0_(now_ns()) {}
  ~LatencyTimer() { h_->observe(now_ns() - t0_); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  obs::Histogram* h_;
  int64_t t0_;
};

bool is_condemned(IntegrityVerdict v) {
  return v != IntegrityVerdict::kOk && v != IntegrityVerdict::kUntracked;
}

}  // namespace

// One rebuild caller's state, reused from stripe to stripe: a stripe
// buffer (allocated once; no decode path reads what an erased position
// held, so it is never re-zeroed), the batch vectors, and each column's
// minimal-read plan, computed the first time that column is a stripe's
// only loss.
struct Raid6Array::RebuildScratch {
  RebuildScratch(const CodeLayout& layout, size_t element_size)
      : buf(layout, element_size),
        plans(static_cast<size_t>(layout.cols())) {}

  Stripe buf;
  std::vector<std::optional<RecoveryPlan>> plans;  // by logical column
  std::vector<int> lost_cols;                      // ascending
  std::vector<Element> lost;
  std::vector<Element> condemned;  // survivors repaired with the stripe
  std::vector<const uint8_t*> srcs;
  std::vector<ReadOp> rops;
  std::vector<WriteOp> wops;
};

bool Raid6Array::rebuild_stripe(int64_t stripe, RebuildScratch& x) {
  const CodeLayout& layout = *layout_;
  x.lost_cols.clear();
  bool writable = false;
  for (int c = 0; c < layout.cols(); ++c) {
    const int pd = map_.physical_disk(stripe, c);
    if (!disk_degraded_for_stripe(pd, stripe)) continue;
    x.lost_cols.push_back(c);
    writable |= !engine_.disk(pd).failed();
  }
  // Nothing lost, or no device to rebuild onto (a failure without a
  // spare): no reads are worth issuing.
  if (!writable) return true;

  x.condemned.clear();
  try {
    if (!decode_erasures(stripe, x)) return false;
  } catch (const ElementIntegrityError&) {
    if (!decode_condemned(stripe, x)) return false;
  }

  x.wops.clear();
  for (int c : x.lost_cols) {
    const int pd = map_.physical_disk(stripe, c);
    if (engine_.disk(pd).failed()) continue;  // no spare yet
    for (int r = 0; r < layout.rows(); ++r) {
      x.wops.push_back({pd, stripe, r, x.buf.at(r, c)});
    }
  }
  for (const Element& e : x.condemned) {
    x.wops.push_back(
        {map_.physical_disk(stripe, e.col), stripe, e.row, x.buf.at(e)});
  }
  engine_.write_batch(x.wops);
  // The repaired survivors' payloads are known good: drop the
  // stale-history record the write left (prev = the condemned sum's
  // predecessor) so later reads classify against a fresh record.
  for (const Element& e : x.condemned) {
    engine_.resync_element_integrity(map_.physical_disk(stripe, e.col),
                                     stripe, e.row, x.buf.at(e));
  }
  metrics_.elements_reconstructed->inc(
      static_cast<int64_t>(x.lost_cols.size()) * layout.rows() +
      static_cast<int64_t>(x.condemned.size()));
  return true;
}

void Raid6Array::read_survivors(int64_t stripe, RebuildScratch& x,
                                bool verify) {
  const CodeLayout& layout = *layout_;
  x.rops.clear();
  for (int c = 0; c < layout.cols(); ++c) {
    if (std::binary_search(x.lost_cols.begin(), x.lost_cols.end(), c)) {
      continue;
    }
    const int pd = map_.physical_disk(stripe, c);
    for (int r = 0; r < layout.rows(); ++r) {
      x.rops.push_back({pd, stripe, r, x.buf.at(r, c)});
    }
  }
  engine_.read_batch(x.rops, verify);
}

bool Raid6Array::decode_erasures(int64_t stripe, RebuildScratch& x) {
  const CodeLayout& layout = *layout_;
  if (x.lost_cols.size() == 1) {
    const int col = x.lost_cols.front();
    std::optional<RecoveryPlan>& plan = x.plans[static_cast<size_t>(col)];
    if (!plan) {
      plan = plan_single_disk_recovery(layout, col,
                                       RecoveryStrategy::kMinimalReads);
    }
    x.rops.clear();
    for (const Element& e : plan->reads) {
      x.rops.push_back(
          {map_.physical_disk(stripe, e.col), stripe, e.row, x.buf.at(e)});
    }
    engine_.read_batch(x.rops);
    for (const Reconstruction& rec : plan->reconstructions) {
      const Equation& q =
          layout.equations()[static_cast<size_t>(rec.equation)];
      x.srcs.clear();
      if (q.parity != rec.target) x.srcs.push_back(x.buf.at(q.parity));
      for (const Element& m : q.sources) {
        if (m != rec.target) x.srcs.push_back(x.buf.at(m));
      }
      xorops::xor_many(x.buf.at(rec.target), x.srcs, element_size_);
    }
    return true;
  }
  read_survivors(stripe, x, /*verify=*/true);
  if (layout.name() == "dcode" && x.lost_cols.size() == 2) {
    return codes::dcode_decode_two_disks(x.buf, x.lost_cols[0],
                                         x.lost_cols[1])
        .success;
  }
  x.lost = codes::elements_of_disks(layout, x.lost_cols);
  return codes::hybrid_decode(x.buf, x.lost).success;
}

bool Raid6Array::decode_condemned(int64_t stripe, RebuildScratch& x) {
  const CodeLayout& layout = *layout_;
  // Raw reads: every survivor is judged here, not vetoed one at a time.
  read_survivors(stripe, x, /*verify=*/false);
  x.lost = codes::elements_of_disks(layout, x.lost_cols);
  for (int c = 0; c < layout.cols(); ++c) {
    if (std::binary_search(x.lost_cols.begin(), x.lost_cols.end(), c)) {
      continue;
    }
    const int pd = map_.physical_disk(stripe, c);
    for (int r = 0; r < layout.rows(); ++r) {
      const uint8_t* payload = x.buf.at(r, c);
      if (is_condemned(engine_.classify_element(pd, stripe, r, payload))) {
        x.condemned.push_back(codes::make_element(r, c));
      }
    }
  }
  x.lost.insert(x.lost.end(), x.condemned.begin(), x.condemned.end());
  if (!codes::hybrid_decode(x.buf, x.lost).success) return false;
  // Only bytes the sidecar vouches for may be written back: a decode
  // through an undetected bad value would launder it onto the spare.
  for (const Element& e : x.condemned) {
    const int pd = map_.physical_disk(stripe, e.col);
    if (is_condemned(
            engine_.classify_element(pd, stripe, e.row, x.buf.at(e)))) {
      return false;
    }
  }
  return true;
}

void Raid6Array::start_background_rebuild() {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  if (rebuild_running_) return;  // the worker rescans between passes
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  rebuild_running_ = true;
  metrics_.rebuild_in_progress->set(1);
  rebuild_thread_ = std::thread([this] { background_rebuild_worker(); });
}

void Raid6Array::background_rebuild_worker() {
  obs::Span span(obs::TraceLog::global(), "rebuild.background",
                 {{"stripes", stripes_}, {"code", layout_->name()}});
  for (;;) {
    std::vector<int> targets;
    {
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      if (!stop_rebuild_.load(std::memory_order_relaxed)) {
        for (int d = 0; d < layout_->cols(); ++d) {
          if (needs_rebuild(d) && !engine_.disk(d).failed() &&
              engine_.disk(d).readable_stripes() < stripes_) {
            targets.push_back(d);
          }
        }
      }
      if (targets.empty()) {
        // Exit decision under the same lock start_background_rebuild
        // takes: a promotion either sees rebuild_running_ still true (we
        // will rescan) or false (it spawns a fresh worker) — a new
        // target can never be stranded.
        rebuild_running_ = false;
        metrics_.rebuild_in_progress->set(0);
        rebuild_cv_.notify_all();
        return;
      }
    }
    span.note("rebuild.pass",
              {{"targets", static_cast<int64_t>(targets.size())}});
    if (!rebuild_pass(targets)) {
      // Shutdown, crash or unrecoverable loss: leave needs_rebuild set for
      // a later synchronous rebuild() and stand down.
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      rebuild_running_ = false;
      metrics_.rebuild_in_progress->set(0);
      rebuild_cv_.notify_all();
      return;
    }
    finish_rebuilt_targets(targets);
  }
}

bool Raid6Array::rebuild_pass(const std::vector<int>& targets) {
  metrics_.rebuilds->inc();
  RebuildScratch scratch(*layout_, element_size_);
  auto stand_down = [&](int64_t stripe, RebuildAbort reason, int disk) {
    metrics_.rebuild_pass_aborts[static_cast<size_t>(reason)]->inc();
    obs::TraceLog::global().event("rebuild.stand_down",
                                  {{"disk", disk},
                                   {"stripe", stripe},
                                   {"reason", to_string(reason)}});
    return false;
  };

  int64_t start = stripes_;
  for (int d : targets) {
    start = std::min(start, engine_.disk(d).readable_stripes());
  }
  for (int64_t s = std::max<int64_t>(0, start); s < stripes_; ++s) {
    if (stop_rebuild_.load(std::memory_order_relaxed)) return false;
    const int64_t waited = rebuild_throttle_.acquire(1.0);
    if (waited > 0) metrics_.rebuild_throttle_wait_ns->observe(waited);

    for (int attempt = 0;; ++attempt) {
      std::unique_lock<std::mutex> lock = stripe_lock(s);
      try {
        if (!rebuild_stripe(s, scratch)) {
          return stand_down(s, RebuildAbort::kUndecodable, targets.front());
        }
        // Advance the watermark before releasing the stripe lock: the
        // next writer of this stripe must already see it healthy, or its
        // RMW would skip the device the worker just filled.
        for (int d : targets) {
          engine_.disk(d).advance_readable_stripes(s);
        }
        metrics_.rebuild_stripes->inc();
        break;
      } catch (const PowerLossError&) {
        return stand_down(s, RebuildAbort::kPowerLoss, targets.front());
      } catch (const DiskFailedError& e) {
        // Another device died mid-stripe; the refreshed erasure set on
        // retry folds it in (or the decode reports it undecodable).
        if (attempt >= 3) {
          return stand_down(s, RebuildAbort::kDiskFailed, e.disk());
        }
      }
    }
  }
  return true;
}

void Raid6Array::finish_rebuilt_targets(const std::vector<int>& targets) {
  std::lock_guard<std::mutex> lock(promote_mu_);
  for (int d : targets) {
    DiskHandle& h = engine_.disk(d);
    if (h.failed() || !needs_rebuild(d)) continue;
    // CAS from the exact stripe count: a re-promotion that reset the
    // watermark mid-pass loses nothing — the flag stays set and the next
    // pass starts over from stripe 0.
    if (h.mark_fully_readable(stripes_)) {
      needs_rebuild_[static_cast<size_t>(d)].store(
          false, std::memory_order_release);
      health_.mark_healthy(d);
    }
  }
}

void Raid6Array::rebuild() {
  // Joins any background worker first: the synchronous rebuild is the
  // catch-all (post-crash recovery, manual repair) and must not race the
  // worker's watermark advances.
  wait_for_rebuild();
  ensure_online();
  const CodeLayout& layout = *layout_;
  std::vector<int> targets;
  for (int d = 0; d < layout.cols(); ++d) {
    if (needs_rebuild(d)) {
      DCODE_CHECK(!engine_.disk(d).failed(), "replace_disk before rebuild");
      targets.push_back(d);
    }
  }
  if (targets.empty()) return;
  DCODE_CHECK(static_cast<int>(targets.size()) <= layout.fault_tolerance(),
              "more failed disks than the code tolerates");

  LatencyTimer timer(metrics_.rebuild_latency_ns);
  metrics_.rebuilds->inc();
  obs::Span span(obs::TraceLog::global(), "rebuild",
                 {{"targets", static_cast<int64_t>(targets.size())},
                  {"stripes", stripes_},
                  {"code", layout.name()}});
  const char* mode = targets.size() == 1 ? "minimal_reads"
                     : layout.name() == "dcode" && targets.size() == 2
                         ? "dcode_chain"
                         : "hybrid_decode";
  span.note("rebuild.plan", {{"mode", mode}});

  // Each stripe is rebuilt under its lock, retrying with a refreshed
  // erasure set when a survivor dies mid-stripe.
  auto rebuild_locked = [&](int64_t s, RebuildScratch& scratch) {
    for (int attempt = 0;; ++attempt) {
      try {
        DCODE_CHECK(rebuild_stripe(s, scratch), "stripe unrecoverable");
        return;
      } catch (const DiskFailedError&) {
        if (attempt >= 3) throw;
      }
    }
  };
  // Stripes fan out over the engine pool, one scratch per chunk. A pool
  // worker must never block on a stripe lock — its holder may be a
  // writer waiting for this pool — so busy stripes are deferred to the
  // calling thread, which waits for them once the fan-out is done.
  std::mutex deferred_mu;
  std::vector<int64_t> deferred;
  engine_.pool().parallel_for_chunked(
      static_cast<size_t>(stripes_), [&](size_t begin, size_t end) {
        RebuildScratch scratch(layout, element_size_);
        for (size_t st = begin; st < end; ++st) {
          const int64_t s = static_cast<int64_t>(st);
          std::unique_lock<std::mutex> lock = stripe_locks_.try_lock(s);
          if (lock.owns_lock()) {
            rebuild_locked(s, scratch);
          } else {
            std::lock_guard<std::mutex> g(deferred_mu);
            deferred.push_back(s);
          }
        }
      });
  if (!deferred.empty()) {
    RebuildScratch scratch(layout, element_size_);
    for (int64_t s : deferred) {
      std::unique_lock<std::mutex> lock = stripe_lock(s);
      rebuild_locked(s, scratch);
    }
  }

  {
    std::lock_guard<std::mutex> lock(promote_mu_);
    for (int d : targets) {
      engine_.disk(d).set_readable_stripes(
          std::numeric_limits<int64_t>::max());
      needs_rebuild_[static_cast<size_t>(d)].store(
          false, std::memory_order_release);
    }
  }
  for (int d : targets) health_.mark_healthy(d);
}

bool Raid6Array::wait_for_rebuild() {
  {
    std::unique_lock<std::mutex> lock(rebuild_mu_);
    rebuild_cv_.wait(lock, [&] { return !rebuild_running_; });
    if (rebuild_thread_.joinable()) rebuild_thread_.join();
  }
  for (int d = 0; d < layout_->cols(); ++d) {
    if (needs_rebuild(d)) return false;
  }
  return true;
}

bool Raid6Array::rebuild_in_progress() const {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  return rebuild_running_;
}

void Raid6Array::set_rebuild_rate(double stripes_per_sec, double burst) {
  rebuild_throttle_.set_rate(stripes_per_sec, burst);
}

}  // namespace dcode::raid
