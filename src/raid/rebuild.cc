// Raid6Array's rebuild drivers: the background worker behind a promoted
// spare and the synchronous rebuild(). Both run rebuild_stripe() under
// the stripe's lock: reconstruct_stripe() (reconstruct.cc) with
// StripeRead::kMinimal — one lost column reads only the planner's
// minimal-read set (paper §III-D, 26 of 42 survivors at p=7), two lost
// D-Code columns go through the §III-C chain decoder — then the lost
// columns and any condemned survivor the routine repaired are written
// back together. A corrupt source is repaired in the same pass instead
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
#include <vector>

#include "obs/trace.h"
#include "raid/raid6_array.h"

namespace dcode::raid {

using codes::CodeLayout;

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

}  // namespace

bool Raid6Array::rebuild_stripe(int64_t stripe, StripeScratch& x) {
  // Nothing lost, or no device to rebuild onto (a failure without a
  // spare): no reads are worth issuing.
  bool writable = false;
  for (int c = 0; c < layout_->cols(); ++c) {
    const int pd = map_.physical_disk(stripe, c);
    writable |=
        disk_degraded_for_stripe(pd, stripe) && !engine_.disk(pd).failed();
  }
  if (!writable) return true;
  if (!reconstruct_stripe(stripe, x, StripeRead::kMinimal)) return false;

  x.wops.clear();
  for (int c : x.lost_cols) {
    const int pd = map_.physical_disk(stripe, c);
    if (engine_.disk(pd).failed()) continue;  // no spare yet
    for (int r = 0; r < layout_->rows(); ++r) {
      x.wops.push_back({pd, stripe, r, x.buf.at(r, c)});
    }
  }
  for (const Suspect& s : x.suspects) {
    x.wops.push_back(
        {map_.physical_disk(stripe, s.e.col), stripe, s.e.row, x.buf.at(s.e)});
  }
  engine_.write_batch(x.wops);
  // The repaired survivors' payloads are known good: drop the
  // stale-history record the write left (prev = the condemned sum's
  // predecessor) so later reads classify against a fresh record.
  for (const Suspect& s : x.suspects) {
    engine_.resync_element_integrity(map_.physical_disk(stripe, s.e.col),
                                     stripe, s.e.row, x.buf.at(s.e));
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
  StripeScratch scratch(*layout_, element_size_);
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
  auto rebuild_locked = [&](int64_t s, StripeScratch& scratch) {
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
        StripeScratch scratch(layout, element_size_);
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
    StripeScratch scratch(layout, element_size_);
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
