// Structured event tracing: a JSON Lines stream of point events and
// nested spans, so a rebuild or a journal replay can be replayed as a
// timeline (see docs/observability.md for the event schema).
//
// A TraceLog is disabled until opened; every emit site guards on one
// relaxed atomic load, so compiled-in tracing costs nothing measurable
// when off. Span nesting is tracked per thread: a Span opened while
// another Span is live on the same thread records it as its parent.
// Events carry a monotonic timestamp (nanoseconds since the log was
// opened) and a small per-thread id, which is what a timeline viewer
// needs to lay concurrent rebuild workers out in lanes.
//
// Event shapes (one JSON object per line):
//   {"ts_ns":N,"tid":T,"type":"span_begin","id":I,"parent":P,
//    "name":"rebuild","attrs":{...}}
//   {"ts_ns":N,"tid":T,"type":"span_end","id":I,"name":"rebuild",
//    "dur_ns":D}
//   {"ts_ns":N,"tid":T,"type":"event","span":I,"name":"...","attrs":{...}}
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace dcode::obs {

namespace detail {
// Small dense per-thread id used as the `tid` in trace lines and flight-
// recorder events, so both artifacts number lanes identically.
int this_thread_trace_id();
}  // namespace detail

// One key/value attribute on an event or span. Keys and string values
// must outlive the call they are passed to.
struct TraceAttr {
  enum class Kind { kInt, kDouble, kString, kBool };

  TraceAttr(std::string_view k, int64_t v)
      : key(k), kind(Kind::kInt), i(v) {}
  TraceAttr(std::string_view k, int v)
      : key(k), kind(Kind::kInt), i(v) {}
  TraceAttr(std::string_view k, uint64_t v)
      : key(k), kind(Kind::kInt), i(static_cast<int64_t>(v)) {}
  TraceAttr(std::string_view k, double v)
      : key(k), kind(Kind::kDouble), d(v) {}
  TraceAttr(std::string_view k, bool v) : key(k), kind(Kind::kBool), b(v) {}
  TraceAttr(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  TraceAttr(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), s(v) {}

  // Views, not copies: attributes are consumed before the emitting call
  // returns, so a span or event built while tracing is off formats and
  // allocates nothing.
  std::string_view key;
  Kind kind;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
  bool b = false;
};

using TraceAttrs = std::initializer_list<TraceAttr>;

class TraceLog {
 public:
  TraceLog() = default;
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  // The process-wide log the library layers emit into. Honors the
  // DCODE_TRACE environment variable on first use: if set, the log opens
  // that path immediately (so any binary can be traced without code
  // changes).
  static TraceLog& global();

  // Start writing JSON Lines to `path` (truncates). Throws on failure.
  // File output is buffered (flushed every ~64KiB and at close); the
  // first open() installs atexit and fatal-signal hooks that flush the
  // buffer with raw write(2) calls, so a crashing process — a chaos
  // campaign leg, an assert — keeps the tail of its trace.
  void open(const std::string& path);
  // Start writing to a caller-owned stream (tests; every line is flushed
  // through immediately). The stream must outlive the log or the next
  // close()/attach().
  void attach(std::ostream* os);
  void close();
  // Drain the buffer to the sink. Called automatically at close/atexit.
  void flush();
  // Signal-handler flush path: try-locks and write(2)s whatever is
  // buffered. Public so the installed crash hooks can reach it; not for
  // general use.
  void panic_flush() noexcept;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Point event, attributed to the calling thread's current span (0 if
  // none). No-op when disabled.
  void event(std::string_view name, TraceAttrs attrs = {});

  // Point event attributed to an explicit span id — how pool workers tag
  // device-level events onto the dispatching op's span from another
  // thread. span 0 falls back to the calling thread's current span.
  void event_in_span(uint64_t span, std::string_view name,
                     TraceAttrs attrs = {});

  // Number of events written since open/attach (tests).
  int64_t events_written() const {
    return events_written_.load(std::memory_order_relaxed);
  }

 private:
  friend class Span;

  int64_t now_ns() const;
  void emit_span_begin(uint64_t id, uint64_t parent, std::string_view name,
                       TraceAttrs attrs);
  void emit_span_end(uint64_t id, std::string_view name, int64_t dur_ns);
  void write_line(const std::string& line);
  void flush_locked();
  static void install_crash_hooks();

  static constexpr size_t kFlushBytes = 64 * 1024;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  int fd_ = -1;              // when open(path) was used; raw fd so the
                             // crash path can flush with async-signal-safe
                             // write(2) instead of iostream machinery
  std::string buf_;          // pending lines for the fd sink
  std::ostream* out_ = nullptr;  // when attach() was used
  int64_t epoch_ns_ = 0;
  std::atomic<int64_t> events_written_{0};
};

// RAII span: emits span_begin on construction and span_end (with
// duration) on destruction. Constructing against a disabled log is free
// apart from one relaxed load.
class Span {
 public:
  Span(TraceLog& log, std::string_view name, TraceAttrs attrs = {});
  // Explicit-parent form: ties this span under `parent` (e.g. an op's
  // root span id carried in an OpContext) regardless of which thread it
  // runs on — the glue that keeps an op's causal tree connected across
  // the engine's pool fan-out. parent 0 falls back to the calling
  // thread's current span (i.e. behaves like the implicit form).
  Span(TraceLog& log, std::string_view name, uint64_t parent,
       TraceAttrs attrs = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Point event inside this span. Usable from any thread (workers tag
  // their own tid); attributed to this span explicitly.
  void note(std::string_view name, TraceAttrs attrs = {});

  uint64_t id() const { return id_; }

 private:
  TraceLog* log_ = nullptr;
  uint64_t id_ = 0;  // 0 = span is disabled (log was off at creation)
  uint64_t prev_current_ = 0;  // this thread's current span on entry,
                               // restored on exit (may differ from the
                               // emitted parent in the explicit form)
  int64_t start_ns_ = 0;
  std::string name_;
};

}  // namespace dcode::obs
