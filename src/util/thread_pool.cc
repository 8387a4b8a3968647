#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/metrics.h"
#include "util/check.h"

namespace dcode {
namespace {

// Set for the lifetime of a worker thread so parallel_for can detect a
// nested dispatch onto the pool the caller already serves.
thread_local const ThreadPool* current_pool = nullptr;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide aggregates over every pool, in the global registry.
struct PoolMetrics {
  obs::Counter* tasks_run;
  obs::Counter* busy_ns;
  obs::Gauge* queue_depth_hwm;
  obs::Gauge* active_workers;

  static const PoolMetrics& get() {
    static const PoolMetrics m = [] {
      auto& reg = obs::Registry::global();
      return PoolMetrics{
          &reg.counter("threadpool.tasks_run", {},
                       "pool tasks (chunks) executed, all pools"),
          &reg.counter("threadpool.busy_ns", {},
                       "summed wall time inside pool tasks, all pools"),
          &reg.gauge("threadpool.queue_depth_hwm", {},
                     "max tasks ever queued at once, any pool"),
          &reg.gauge("threadpool.active_workers", {},
                     "workers running a task right now, all pools"),
      };
    }();
    return m;
  }
};

}  // namespace

// One dispatch. Lives on the dispatching caller's stack; the caller
// cannot return before `remaining` hits zero, and workers only touch the
// job under the pool mutex (claiming) or its own mutex (completing), so
// the lifetime is safe.
struct ThreadPool::Job {
  Job(const std::function<void(size_t, size_t)>& f, size_t n, size_t chunks)
      : fn(f), count(n), nchunks(chunks), remaining(chunks) {}

  // Chunk c's [begin, end): the first count % nchunks chunks take one
  // extra iteration.
  size_t begin(size_t c) const {
    return c * (count / nchunks) + std::min(c, count % nchunks);
  }

  const std::function<void(size_t, size_t)>& fn;
  const size_t count;
  const size_t nchunks;
  size_t next = 0;      // next unclaimed chunk (under the pool mutex)
  Job* link = nullptr;  // queue successor (under the pool mutex)

  std::mutex mu;
  std::condition_variable done_cv;  // the dispatching caller waits here
  size_t remaining;
  std::exception_ptr first_error;
};

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    Job* job = nullptr;
    size_t chunk = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stopping_ || head_ != nullptr; });
      if (head_ == nullptr) return;  // stopping, queue drained
      job = head_;
      chunk = job->next++;
      --queued_;
      if (job->next == job->nchunks) {
        head_ = job->link;
        if (head_ == nullptr) tail_ = nullptr;
      }
    }
    run_chunk(*job, chunk);
  }
}

void ThreadPool::run_chunk(Job& job, size_t chunk) {
  const PoolMetrics& pm = PoolMetrics::get();
  active_workers_.fetch_add(1, std::memory_order_relaxed);
  pm.active_workers->add(1);
  const int64_t t0 = now_ns();
  try {
    job.fn(job.begin(chunk), job.begin(chunk + 1));
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.first_error) job.first_error = std::current_exception();
  }
  const int64_t dt = now_ns() - t0;
  busy_ns_.fetch_add(dt, std::memory_order_relaxed);
  pm.busy_ns->inc(dt);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  pm.tasks_run->inc();
  active_workers_.fetch_sub(1, std::memory_order_relaxed);
  pm.active_workers->sub(1);
  // The dispatching caller may wake on this notify and return, ending
  // the job's lifetime: nothing touches `job` after the lock is released.
  std::lock_guard<std::mutex> lock(job.mu);
  if (--job.remaining == 0) job.done_cv.notify_all();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  s.queue_depth_high_water = queue_depth_hwm_.load(std::memory_order_relaxed);
  s.active_workers = active_workers_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.queued = queued_;
  return s;
}

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t)>& fn) {
  parallel_for_chunked(count, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_chunked(
    size_t count, const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  const size_t nworkers = workers_.size();
  // Dispatch is pointless for tiny ranges or a single worker, and a
  // nested dispatch from one of our own workers must not queue: the
  // worker would block on chunks that need its own queue slot to run.
  if (nworkers <= 1 || count == 1 || current_pool == this) {
    fn(0, count);
    return;
  }

  Job job(fn, count, std::min(count, nworkers));
  {
    std::lock_guard<std::mutex> lock(mu_);
    (tail_ != nullptr ? tail_->link : head_) = &job;
    tail_ = &job;
    queued_ += job.nchunks;
    const int64_t depth = static_cast<int64_t>(queued_);
    if (depth > queue_depth_hwm_.load(std::memory_order_relaxed)) {
      queue_depth_hwm_.store(depth, std::memory_order_relaxed);
      PoolMetrics::get().queue_depth_hwm->update_max(depth);
    }
  }
  task_cv_.notify_all();

  std::unique_lock<std::mutex> lock(job.mu);
  job.done_cv.wait(lock, [&job] { return job.remaining == 0; });
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace dcode
