// A small fixed-size thread pool with a blocking parallel_for.
//
// Stripe encode/decode/rebuild is embarrassingly parallel across stripes,
// so the pool only needs static chunking and a completion barrier — no
// futures, no work stealing. Tasks must not throw across the boundary;
// exceptions are captured and rethrown on the calling thread (first one
// wins), matching how a RAID rebuild would surface a fault.
//
// Completion is tracked per dispatch, not pool-wide: every parallel_for
// call queues one job descriptor (`Job`) that lives on the caller's stack
// and counts only its own chunks, so concurrent callers never block on
// each other's work, an exception is attributed to the call whose task
// threw, and a dispatch allocates nothing. A nested parallel_for issued
// from inside one of this pool's workers runs inline on that worker —
// queueing it would deadlock, since the worker would wait on chunks that
// need its own queue slot to drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcode {

class ThreadPool {
 public:
  // Point-in-time introspection of one pool (per-pool numbers; the
  // process-wide aggregates across pools live in obs::Registry::global()
  // under threadpool.*).
  struct Stats {
    int64_t tasks_run = 0;          // chunks executed to completion
    int64_t busy_ns = 0;            // summed wall time inside tasks
    int64_t queue_depth_high_water = 0;  // max tasks ever queued at once
    unsigned active_workers = 0;    // workers running a task right now
    size_t queued = 0;              // tasks waiting in the queue right now
  };

  // `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  Stats stats() const;

  // Runs fn(i) for i in [0, count), partitioned into contiguous chunks,
  // and blocks until all iterations complete. Runs inline when the pool
  // has a single worker, the range is tiny (avoids dispatch overhead), or
  // the caller is itself one of this pool's workers.
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

  // Like parallel_for but hands each worker a [begin, end) slice; useful
  // when per-chunk setup (e.g. a scratch buffer) amortizes across items.
  void parallel_for_chunked(
      size_t count, const std::function<void(size_t, size_t)>& fn);

 private:
  // One parallel_for dispatch (defined in the .cc): the caller's
  // function, its chunking, and its completion ticket. Workers claim its
  // chunks in order; it leaves the queue once every chunk is claimed.
  struct Job;

  void worker_loop();
  // Runs one chunk, capturing a throw into the job, then completes it —
  // only after the accounting lands, so a caller returning from
  // parallel_for observes stats() that include every one of its chunks.
  void run_chunk(Job& job, size_t chunk);

  std::vector<std::thread> workers_;
  Job* head_ = nullptr;  // FIFO of jobs with unclaimed chunks (under mu_)
  Job* tail_ = nullptr;
  size_t queued_ = 0;    // unclaimed chunks over every queued job
  mutable std::mutex mu_;
  std::condition_variable task_cv_;  // workers wait for chunks
  bool stopping_ = false;

  // Accounting (relaxed atomics: read by stats() and the obs collector
  // without the queue lock).
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> queue_depth_hwm_{0};
  std::atomic<unsigned> active_workers_{0};
};

}  // namespace dcode
