// Bounded admission queue for the request pipeline.
//
// Submitters push PendingOps (sequence numbers are assigned under the
// queue mutex, so queue order == sequence order == arrival order);
// pipeline workers pop them one at a time, in that order.
//
// Backpressure: push() blocks while the queue is at depth. close()
// wakes everyone; pops drain the remainder and then return false.
//
// The ticket-registration callback passed to pop() runs under the queue
// mutex, making the FIFO pop atomic with admission-order ticket
// registration (see StripeRangeLock's protocol). Lock order is queue
// mutex -> range-lock mutex, nothing else.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace dcode::raid {

// Completion state shared between a submitted op's OpFuture and the
// pipeline worker that eventually executes it.
struct OpState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;       // set iff the op failed
  uint64_t op_id = 0;             // obs::next_op_id(), minted at submit
  uint64_t seq = 0;               // admission order, assigned by the queue
  int64_t enqueue_ns = 0;         // submit time (steady clock)
  int64_t complete_ns = 0;        // completion time (steady clock)

  void complete(std::exception_ptr e, int64_t now_ns) {
    {
      std::lock_guard<std::mutex> l(mu);
      error = std::move(e);
      complete_ns = now_ns;
      done = true;
    }
    cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return done; });
  }

  bool ready() {
    std::lock_guard<std::mutex> l(mu);
    return done;
  }
};

// One submitted-but-not-yet-executed op. Writes own a copy of their
// payload (the caller's buffer is free the moment submit returns);
// reads borrow the destination, which must stay valid until the future
// completes.
struct PendingOp {
  bool is_write = false;
  int64_t offset = 0;
  int64_t len = 0;
  std::vector<uint8_t> data;    // write payload (owned)
  uint8_t* read_dst = nullptr;  // read destination (caller-owned)
  int64_t first_stripe = 0;     // stripe range covered by [offset, len)
  int64_t last_stripe = 0;
  uint64_t seq = 0;  // assigned by OpQueue::push; the op's ticket id
  std::shared_ptr<OpState> state;
};

class OpQueue {
 public:
  // `depth` is push()'s backpressure threshold; `depth_gauge` (optional)
  // tracks the live queue length.
  explicit OpQueue(size_t depth, obs::Gauge* depth_gauge = nullptr)
      : depth_(depth), depth_gauge_(depth_gauge) {}

  // Assigns the op's sequence number and enqueues it, blocking while the
  // queue is full. Returns false (op not queued) iff the queue is closed.
  bool push(PendingOp op);

  // Called under the queue mutex, once per popped op, before the pop is
  // visible to anyone: (seq, first_stripe, last_stripe, is_write).
  using RegisterFn =
      std::function<void(uint64_t, int64_t, int64_t, bool)>;

  // Pops the oldest op and registers its admission ticket via `reg`.
  // Blocks while the queue is empty; returns false once it is closed
  // *and* drained.
  bool pop(PendingOp* out, const RegisterFn& reg);

  // Wakes all waiters; subsequent pushes fail, pops drain then stop.
  void close();

  size_t depth() const {
    std::lock_guard<std::mutex> l(mu_);
    return q_.size();
  }

 private:
  size_t depth_;
  obs::Gauge* depth_gauge_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<PendingOp> q_;
  uint64_t next_seq_ = 1;
  bool closed_ = false;
};

}  // namespace dcode::raid
