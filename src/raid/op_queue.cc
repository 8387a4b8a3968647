#include "raid/op_queue.h"

#include <utility>

namespace dcode::raid {

bool OpQueue::push(PendingOp op) {
  std::unique_lock<std::mutex> l(mu_);
  not_full_.wait(l, [&] { return q_.size() < depth_ || closed_; });
  if (closed_) return false;
  op.seq = next_seq_++;
  if (op.state) op.state->seq = op.seq;
  q_.push_back(std::move(op));
  if (depth_gauge_ != nullptr)
    depth_gauge_->set(static_cast<int64_t>(q_.size()));
  l.unlock();
  not_empty_.notify_one();
  return true;
}

bool OpQueue::pop(PendingOp* out, const RegisterFn& reg) {
  std::unique_lock<std::mutex> l(mu_);
  not_empty_.wait(l, [&] { return !q_.empty() || closed_; });
  if (q_.empty()) return false;  // closed and drained

  *out = std::move(q_.front());
  q_.pop_front();

  // Register the admission ticket while the pop is still invisible:
  // with the queue mutex held, no later op can be popped (and thus
  // registered) before this one, so ticket order == admission order.
  reg(out->seq, out->first_stripe, out->last_stripe, out->is_write);

  if (depth_gauge_ != nullptr)
    depth_gauge_->set(static_cast<int64_t>(q_.size()));
  l.unlock();
  not_full_.notify_all();
  return true;
}

void OpQueue::close() {
  {
    std::lock_guard<std::mutex> l(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

}  // namespace dcode::raid
