#include "raid/pipeline.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/op_context.h"
#include "util/check.h"

namespace dcode::raid {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StripePipeline::Metrics StripePipeline::resolve_metrics(Raid6Array& array) {
  obs::Registry& reg = array.metrics_registry();
  Metrics m;
  m.queue_depth = &reg.gauge("pipeline.queue_depth", {},
                             "ops waiting in the pipeline's admission queue");
  m.admission_wait_ns = &reg.histogram(
      "pipeline.admission_wait_ns", obs::latency_fine_bounds_ns(), {},
      "time a popped op waited for its stripe-range ticket (0 = no "
      "conflicting earlier op)");
  m.ops_submitted = &reg.counter(
      "pipeline.ops_submitted", {}, "ops accepted by submit_read/submit_write");
  m.ops_completed = &reg.counter("pipeline.ops_completed", {},
                                 "ops whose futures have completed");
  return m;
}

StripePipeline::StripePipeline(Raid6Array& array, PipelineOptions options)
    : array_(array),
      options_(options),
      metrics_(resolve_metrics(array)),
      range_lock_(metrics_.admission_wait_ns),
      queue_(options.queue_depth, metrics_.queue_depth) {
  DCODE_CHECK(options_.workers > 0, "pipeline needs at least one worker");
  DCODE_CHECK(options_.queue_depth > 0, "pipeline queue depth must be > 0");

  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

StripePipeline::~StripePipeline() {
  queue_.close();
  for (auto& w : workers_) w.join();
}

void StripePipeline::stripe_range(int64_t offset, int64_t len,
                                  int64_t* first, int64_t* last) const {
  const int64_t stripe_bytes =
      array_.layout().data_count() *
      static_cast<int64_t>(array_.element_size());
  *first = offset / stripe_bytes;
  *last = (len > 0 ? offset + len - 1 : offset) / stripe_bytes;
}

OpFuture StripePipeline::submit(PendingOp op) {
  DCODE_CHECK(op.offset >= 0 && op.offset + op.len <= array_.capacity(),
              "pipeline op outside the array's logical space");
  op.state = std::make_shared<OpState>();
  op.state->op_id = obs::next_op_id();
  op.state->enqueue_ns = now_ns();
  stripe_range(op.offset, op.len, &op.first_stripe, &op.last_stripe);
  OpFuture fut(op.state);
  metrics_.ops_submitted->inc();
  if (op.len == 0) {  // nothing to do — complete inline
    op.state->complete(nullptr, now_ns());
    metrics_.ops_completed->inc();
    return fut;
  }
  {
    std::lock_guard<std::mutex> l(drain_mu_);
    ++submitted_;
  }
  if (!queue_.push(std::move(op))) {
    {
      std::lock_guard<std::mutex> l(drain_mu_);
      --submitted_;
    }
    throw std::runtime_error("StripePipeline: submit after shutdown");
  }
  return fut;
}

OpFuture StripePipeline::submit_read(int64_t offset, std::span<uint8_t> out) {
  PendingOp op;
  op.is_write = false;
  op.offset = offset;
  op.len = static_cast<int64_t>(out.size());
  op.read_dst = out.data();
  return submit(std::move(op));
}

OpFuture StripePipeline::submit_write(int64_t offset,
                                      std::span<const uint8_t> data) {
  PendingOp op;
  op.is_write = true;
  op.offset = offset;
  op.len = static_cast<int64_t>(data.size());
  op.data.assign(data.begin(), data.end());
  return submit(std::move(op));
}

void StripePipeline::drain() {
  std::unique_lock<std::mutex> l(drain_mu_);
  drain_cv_.wait(l, [&] { return submitted_ == completed_; });
}

void StripePipeline::worker_loop() {
  PendingOp op;
  const auto reg = [this](uint64_t seq, int64_t first, int64_t last,
                          bool is_write) {
    range_lock_.register_ticket(seq, first, last, is_write);
  };
  while (queue_.pop(&op, reg)) {
    range_lock_.acquire(op.seq);
    execute(op);
    range_lock_.release(op.seq);
    metrics_.ops_completed->inc();
    {
      std::lock_guard<std::mutex> l(drain_mu_);
      ++completed_;
    }
    drain_cv_.notify_all();
  }
}

void StripePipeline::execute(PendingOp& op) {
  // The array's OpGuard adopts this context, so the root span,
  // flight-recorder events, and enqueue-anchored latency all attribute
  // to the submitted op.
  obs::OpContext ctx;
  ctx.op_id = op.state->op_id;
  ctx.enqueue_ns = op.state->enqueue_ns;
  obs::OpContextScope scope(&ctx);

  std::exception_ptr err;
  try {
    if (op.is_write) {
      array_.write(op.offset, std::span<const uint8_t>(op.data));
    } else {
      array_.read(op.offset, std::span<uint8_t>(
                                 op.read_dst, static_cast<size_t>(op.len)));
    }
  } catch (...) {
    err = std::current_exception();
  }
  op.state->complete(err, now_ns());
}

}  // namespace dcode::raid
