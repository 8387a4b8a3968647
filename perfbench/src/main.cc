// perfbench: the repository benchmark (see BENCHMARK.json and
// perfbench/spec.json, which holds each workload's parameters and the
// reasons they were chosen; perfbench/run.py passes them in as flags).
//
// One run builds a volume::StoragePool (2 shards of dcode p=7, 4 KiB
// elements, one stripe per chunk, shipped defaults otherwise) on top of
// the benchmark's TimedDevice decorator, fills it, drives one workload
// for --seconds from at most two caller threads, and then checks every
// byte: each read during the window against the version shadow, a full
// read-back at the end, scrub_all() == 0 and zero verify-on-read
// mismatches. The last stdout line is the JSON result; --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones.
//
// Everything is measured from outside the library: the benchmark's own
// timing of its StoragePool calls, the decorator's device counters and
// spans, and the counters and histograms the library already exports.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "raid/file_disk.h"
#include "raid/mem_disk.h"
#include "sim/workload.h"
#include "span_log.h"
#include "timed_device.h"
#include "util/rng.h"
#include "volume/storage_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace obs = dcode::obs;
namespace sim = dcode::sim;
namespace volume = dcode::volume;

constexpr int kShards = 2;
constexpr int kPrime = 7;
constexpr size_t kBlock = 4096;  // element size = oracle block size
constexpr int kCallers = 2;
// ShardSpec's default: one engine thread per shard, so per-disk fan-out
// runs inline on the pipeline worker.
constexpr unsigned kEngineThreads = 1;
// The whole process runs on one CPU (see pin_to_cpus and spec.json).
constexpr int kCpus = 1;

// ---------------------------------------------------------------------------
// Parameters

struct Params {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;

  std::string backend;          // mem | file
  int64_t stripes = 0;          // per shard
  std::string pattern;          // random | stream
  double open_rate = 0;         // offered ops/s over both callers
  double open_share = 0;        // share of the window run open-loop
  double read_frac = 0;         // random pattern: share of reads
  int max_blocks = 1;           // random pattern: op length 1..max_blocks
  double zipf_theta = 0;        // random pattern: 0 = uniform starts
  int64_t write_bytes = 0;      // stream pattern: append size
  int64_t read_bytes = 0;       // stream pattern: read size
  int journal_slots = 0;
  bool persist_sidecars = false;
  bool rebuild_cycles = false;  // back-to-back rebuilds during the window
  int quiet_cycles = 0;         // quiet rebuilds after the window
  int setups = 1;
  int segment_ms = 0;           // statistics segment length
  int warmup_ops = 0;           // per caller, before the window
  std::string work_dir;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "run it through perfbench/run.py, which passes the workload "
               "parameters from perfbench/spec.json\n";
  std::exit(2);
}

Params parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + a);
    kv[a.substr(2)] = argv[++i];
  }
  auto take = [&](const std::string& key) {
    auto it = kv.find(key);
    if (it == kv.end()) usage("missing --" + key);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto num = [&](const std::string& key) {
    const std::string v = take(key);
    try {
      size_t used = 0;
      double d = std::stod(v, &used);
      if (used != v.size() || !std::isfinite(d)) throw std::invalid_argument(v);
      return d;
    } catch (const std::exception&) {
      usage("--" + key + " needs a number, got " + v);
    }
  };
  Params p;
  p.workload = take("workload");
  p.seed = static_cast<uint64_t>(num("seed"));
  p.seconds = num("seconds");
  p.trace = num("trace") != 0;
  p.backend = take("backend");
  p.stripes = static_cast<int64_t>(num("stripes"));
  p.pattern = take("pattern");
  p.open_rate = num("open-rate");
  p.open_share = num("open-share");
  p.read_frac = num("read-frac");
  p.max_blocks = static_cast<int>(num("max-blocks"));
  p.zipf_theta = num("zipf-theta");
  p.write_bytes = static_cast<int64_t>(num("write-bytes"));
  p.read_bytes = static_cast<int64_t>(num("read-bytes"));
  p.journal_slots = static_cast<int>(num("journal-slots"));
  p.persist_sidecars = num("persist-sidecars") != 0;
  p.rebuild_cycles = num("rebuild-cycles") != 0;
  p.quiet_cycles = static_cast<int>(num("quiet-cycles"));
  p.setups = static_cast<int>(num("setups"));
  p.segment_ms = static_cast<int>(num("segment-ms"));
  p.warmup_ops = static_cast<int>(num("warmup-ops"));
  p.work_dir = take("work-dir");
  p.trace_file = take("trace-file");
  if (!kv.empty()) usage("unknown flag --" + kv.begin()->first);

  if (p.seconds <= 0) usage("--seconds must be positive");
  if (p.backend != "mem" && p.backend != "file") usage("--backend mem|file");
  if (p.pattern != "random" && p.pattern != "stream") {
    usage("--pattern random|stream");
  }
  if (p.stripes < 2 || p.setups < 1 || p.segment_ms < 1) {
    usage("need --stripes >= 2, --setups >= 1 and --segment-ms >= 1");
  }
  if (p.open_share < 0 || p.open_share > 1 ||
      (p.open_share > 0 && p.open_rate <= 0)) {
    usage("--open-share in [0,1], with a positive --open-rate when > 0");
  }
  if (p.pattern == "random" &&
      (p.max_blocks < 1 || (p.read_frac != 0.7 && p.read_frac != 0.5))) {
    usage("random pattern: --max-blocks >= 1, --read-frac 0.7 or 0.5");
  }
  if (p.pattern == "stream" &&
      (p.write_bytes <= 0 || p.read_bytes <= 0 ||
       p.write_bytes % static_cast<int64_t>(kBlock) != 0 ||
       p.read_bytes % static_cast<int64_t>(kBlock) != 0 ||
       p.open_share != 0)) {
    usage("stream pattern: block-multiple sizes, closed loop only");
  }
  return p;
}

// ---------------------------------------------------------------------------
// Small statistics helpers

double percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The pool under test

int64_t data_per_stripe() {
  return dcode::codes::make_layout("dcode", kPrime)->data_count();
}

struct Rig {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<DeviceBoard> board;
  std::unique_ptr<volume::StoragePool> pool;  // last: destroyed first
};

std::unique_ptr<Rig> build_rig(const Params& p, int setup_index) {
  auto rig = std::make_unique<Rig>();
  rig->registry = std::make_unique<obs::Registry>();
  rig->board = std::make_unique<DeviceBoard>(kShards, kPrime);

  raid::DeviceFactory inner;
  if (p.backend == "mem") {
    inner = [](int id, size_t size) -> std::unique_ptr<raid::BlockDevice> {
      return std::make_unique<raid::MemDisk>(id, size);
    };
  } else {
    const std::string dir =
        p.work_dir + "/disks" + std::to_string(setup_index);
    fs::create_directories(dir);
    auto serial = std::make_shared<std::atomic<int>>(0);
    inner = [dir, serial](int id,
                          size_t size) -> std::unique_ptr<raid::BlockDevice> {
      const std::string path = dir + "/disk" + std::to_string(id) + "-" +
                               std::to_string(serial->fetch_add(1)) + ".img";
      return std::make_unique<raid::FileDisk>(
          id, size, path,
          raid::FileDisk::Options{.reuse = false, .unlink_on_close = true});
    };
  }

  volume::ShardSpec spec;
  spec.code = "dcode";
  spec.prime = kPrime;
  spec.element_size = kBlock;
  spec.stripes = p.stripes;
  spec.threads = kEngineThreads;
  spec.journal_slots = p.journal_slots;
  spec.array.device_factory = rig->board->factory(std::move(inner));
  spec.array.background_rebuild = p.rebuild_cycles;
  if (p.persist_sidecars) {
    spec.array.integrity_sidecar_dir =
        p.work_dir + "/sidecars" + std::to_string(setup_index);
    fs::create_directories(spec.array.integrity_sidecar_dir);
  }
  volume::PoolOptions popts;
  popts.chunk_bytes = data_per_stripe() * static_cast<int64_t>(kBlock);
  rig->pool = std::make_unique<volume::StoragePool>(spec, kShards, popts,
                                                    rig->registry.get());
  return rig;
}

// Writes version 0 of every block; returns seconds spent inside the pool.
double fill(volume::StoragePool& pool, const BlockStamp& stamp) {
  const int64_t blocks = pool.capacity() / static_cast<int64_t>(kBlock);
  const int64_t span = 8 * pool.chunk_bytes() / static_cast<int64_t>(kBlock);
  std::vector<uint8_t> buf(static_cast<size_t>(span) * kBlock);
  int64_t in_pool = 0;
  for (int64_t b = 0; b < blocks; b += span) {
    const int64_t n = std::min(span, blocks - b);
    for (int64_t i = 0; i < n; ++i) stamp.fill(&buf[i * kBlock], b + i, 0);
    const int64_t t0 = now_ns();
    pool.write(b * static_cast<int64_t>(kBlock),
               std::span<const uint8_t>(buf.data(), n * kBlock));
    in_pool += now_ns() - t0;
  }
  return static_cast<double>(in_pool) / 1e9;
}

// ---------------------------------------------------------------------------
// Generated load

struct BenchOp {
  int64_t due_ns = 0;  // open loop: offset from the phase start
  int64_t block = 0;
  int32_t blocks = 1;
  bool write = false;
};

struct Plan {
  std::vector<BenchOp> open;    // one Poisson schedule per caller
  std::vector<BenchOp> closed;  // replayed cyclically
};

// Random pattern: sim::generate_workload supplies kind, starts and
// lengths. Caller c owns the writes to blocks [c*half, (c+1)*half), so
// every block has a single writer (what makes the shadow exact); its
// reads may land anywhere.
std::vector<Plan> make_random_plans(const Params& p, int64_t blocks,
                                    double open_seconds) {
  const int64_t half = blocks / kCallers;
  std::vector<Plan> plans(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    const double per_caller_rate = p.open_rate / kCallers;
    const int open_ops = static_cast<int>(
        std::ceil(per_caller_rate * open_seconds * 1.2) + 16);
    sim::WorkloadParams wp;
    wp.operations = open_ops + (1 << 18);
    wp.min_len = 1;
    wp.max_len = p.max_blocks;
    wp.min_times = 1;
    wp.max_times = 1;
    wp.start_space = blocks - p.max_blocks + 1;
    wp.zipf_theta = p.zipf_theta;
    wp.seed = p.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c) + 1;
    const auto kind = p.read_frac == 0.7 ? sim::WorkloadKind::kReadIntensive
                                         : sim::WorkloadKind::kMixed;
    const std::vector<sim::Op> ops = sim::generate_workload(kind, wp);

    dcode::Pcg32 arrivals(p.seed ^ 0xa5a5a5a5ULL, 2 * static_cast<uint64_t>(c) + 7);
    int64_t t = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      BenchOp op;
      op.write = ops[i].is_write;
      op.blocks = ops[i].len;
      op.block = ops[i].start;
      if (op.write) op.block = c * half + op.block % (half - p.max_blocks + 1);
      if (static_cast<int>(i) < open_ops && p.open_share > 0) {
        // Exponential inter-arrival gaps: a Poisson process.
        const double u = 1.0 - arrivals.next_double();
        t += static_cast<int64_t>(-std::log(u) / per_caller_rate * 1e9);
        op.due_ns = t;
        plans[static_cast<size_t>(c)].open.push_back(op);
      } else {
        plans[static_cast<size_t>(c)].closed.push_back(op);
      }
    }
  }
  return plans;
}

// Stream pattern: caller 0 appends sequential write_bytes writes from
// block 0, caller 1 streams sequential read_bytes reads from a seed-chosen
// start; both wrap around.
std::vector<Plan> make_stream_plans(const Params& p, int64_t blocks) {
  std::vector<Plan> plans(kCallers);
  const int32_t wb = static_cast<int32_t>(p.write_bytes / kBlock);
  const int32_t rb = static_cast<int32_t>(p.read_bytes / kBlock);
  for (int64_t b = 0; b + wb <= blocks; b += wb) {
    plans[0].closed.push_back(BenchOp{0, b, wb, true});
  }
  // The reader starts at a seed-chosen read-aligned block.
  const int64_t reads = blocks / rb;
  const int64_t first =
      static_cast<int64_t>(dcode::Pcg32(p.seed, 11).next_below(
          static_cast<uint32_t>(reads)));
  for (int64_t i = 0; i < reads; ++i) {
    plans[1].closed.push_back(
        BenchOp{0, ((first + i) % reads) * rb, rb, false});
  }
  return plans;
}

// ---------------------------------------------------------------------------
// Callers

struct SegStats {
  std::vector<int64_t> read_lat;   // ns, from intended arrival when open
  std::vector<int64_t> write_lat;
  int64_t ops = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
  int64_t call_ns = 0;  // time inside StoragePool calls

  void merge(const SegStats& o) {
    read_lat.insert(read_lat.end(), o.read_lat.begin(), o.read_lat.end());
    write_lat.insert(write_lat.end(), o.write_lat.begin(), o.write_lat.end());
    ops += o.ops;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    call_ns += o.call_ns;
  }
};

struct CallerStats {
  std::vector<SegStats> segs;
  std::vector<int64_t> late_ns;  // open loop: actual start - intended
  int64_t attempted = 0;
  int64_t failed = 0;  // threw
  int64_t wrong = 0;   // returned bytes the oracle rejected
};

struct Phase {
  bool open = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int first_seg = 0;
  int segments = 2;  // even, so traced runs split it evenly
};

class Caller {
 public:
  Caller(int id, volume::StoragePool& pool, Shadow& shadow,
         const BlockStamp& stamp, const Plan& plan, CallerStats& stats,
         std::atomic<uint64_t>& op_seq)
      : id_(id),
        pool_(pool),
        shadow_(shadow),
        stamp_(stamp),
        plan_(plan),
        stats_(stats),
        op_seq_(op_seq) {}

  // Runs `count` closed-loop ops outside any measured window.
  void warmup(int count) {
    for (int i = 0; i < count; ++i) issue(next_closed(), now_ns(), nullptr);
  }

  void run(const std::vector<Phase>& phases) {
    // Exact sleeps: the default 50 us timer slack would show up as
    // generator lateness in the open-loop phases.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    size_t next_open = 0;
    for (const Phase& ph : phases) {
      const double seg_ns =
          static_cast<double>(ph.end_ns - ph.start_ns) / ph.segments;
      auto seg_of = [&](int64_t t) {
        const int s = static_cast<int>(
            static_cast<double>(std::max<int64_t>(0, t - ph.start_ns)) /
            seg_ns);
        return ph.first_seg + std::min(s, ph.segments - 1);
      };
      if (ph.open) {
        for (; next_open < plan_.open.size(); ++next_open) {
          const BenchOp& op = plan_.open[next_open];
          const int64_t due = ph.start_ns + op.due_ns;
          if (due >= ph.end_ns) break;
          issue(op, due, &stats_.segs[static_cast<size_t>(seg_of(due))],
                true);
        }
      } else {
        while (true) {
          const int64_t t = now_ns();
          if (t >= ph.end_ns) break;
          issue(next_closed(), t, &stats_.segs[static_cast<size_t>(seg_of(t))]);
        }
      }
    }
  }

 private:
  const BenchOp& next_closed() {
    const BenchOp& op = plan_.closed[closed_pos_];
    closed_pos_ = (closed_pos_ + 1) % plan_.closed.size();
    return op;
  }

  // Issues one op. `intended` is when it was due; an open-loop op waits
  // for it, and its latency counts from it.
  void issue(const BenchOp& op, int64_t intended, SegStats* seg,
             bool open = false) {
    const size_t bytes = static_cast<size_t>(op.blocks) * kBlock;
    if (buf_.size() < bytes) buf_.resize(bytes);
    versions_.resize(static_cast<size_t>(op.blocks));
    // Prepare outside the timed call: stamp the new versions, or note the
    // oldest version each block may still return.
    for (int32_t i = 0; i < op.blocks; ++i) {
      const int64_t b = op.block + i;
      if (op.write) {
        versions_[i] = shadow_.begin_write(b);
        stamp_.fill(&buf_[static_cast<size_t>(i) * kBlock], b, versions_[i]);
      }
    }
    if (open) {
      const int64_t wait = intended - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    if (!op.write) {
      for (int32_t i = 0; i < op.blocks; ++i) {
        versions_[i] = shadow_.completed(op.block + i);
      }
    }
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    const int64_t t0 = now_ns();
    bool ok = true;
    try {
      if (op.write) {
        pool_.write(op.block * static_cast<int64_t>(kBlock),
                    std::span<const uint8_t>(buf_.data(), bytes));
      } else {
        pool_.read(op.block * static_cast<int64_t>(kBlock),
                   std::span<uint8_t>(buf_.data(), bytes));
      }
    } catch (const std::exception& e) {
      ok = false;
      if (stats_.failed++ == 0) {
        std::cerr << "caller " << id_ << ": op failed: " << e.what() << "\n";
      }
    }
    const int64_t t1 = now_ns();
    if (SpanLog::global().enabled()) {
      SpanLog::global().record(
          op.write ? SpanKind::kPoolWrite : SpanKind::kPoolRead, t0, t1, seq,
          id_, static_cast<uint32_t>(bytes));
    }

    if (op.write) {
      // A failed write may or may not have landed: leave `completed`
      // behind so reads accept either version.
      if (ok) {
        for (int32_t i = 0; i < op.blocks; ++i) {
          shadow_.end_write(op.block + i, versions_[i]);
        }
      }
    } else if (ok) {
      for (int32_t i = 0; i < op.blocks; ++i) {
        const int64_t b = op.block + i;
        uint32_t v = 0;
        if (!stamp_.check(&buf_[static_cast<size_t>(i) * kBlock], b, &v) ||
            v < versions_[i] || v > shadow_.started(b)) {
          if (stats_.wrong++ == 0) {
            std::cerr << "caller " << id_ << ": wrong bytes in block " << b
                      << " (stamped version " << v << ", expected "
                      << versions_[i] << ".." << shadow_.started(b) << ")\n";
          }
          break;
        }
      }
    }

    if (seg == nullptr) return;
    ++stats_.attempted;
    if (open) stats_.late_ns.push_back(t0 - intended);
    (op.write ? seg->write_lat : seg->read_lat).push_back(t1 - intended);
    ++seg->ops;
    (op.write ? seg->write_bytes : seg->read_bytes) +=
        static_cast<int64_t>(bytes);
    seg->call_ns += t1 - t0;
  }

  int id_;
  volume::StoragePool& pool_;
  Shadow& shadow_;
  const BlockStamp& stamp_;
  const Plan& plan_;
  CallerStats& stats_;
  std::atomic<uint64_t>& op_seq_;
  size_t closed_pos_ = 0;
  std::vector<uint8_t> buf_;
  std::vector<uint32_t> versions_;
};

// ---------------------------------------------------------------------------
// Rebuild cycles

struct Cycle {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
};

// One rebuild cycle: add a spare, fail `disk` of `shard`, wait until the
// spare is rebuilt. With background_rebuild off, fail_disk() itself
// rebuilds before returning.
Cycle rebuild_cycle(Rig& rig, int shard, int disk) {
  raid::Raid6Array& array = rig.pool->shard_array(shard);
  rig.board->set_replacement_shard(shard);
  array.add_hot_spares(1);
  Cycle c;
  c.start_ns = now_ns();
  array.fail_disk(disk);
  c.ok = array.wait_for_rebuild() && array.failed_disk_count() == 0;
  c.end_ns = now_ns();
  if (SpanLog::global().enabled()) {
    SpanLog::global().record(SpanKind::kRebuildCycle, c.start_ns, c.end_ns, 0,
                             shard * kPrime + disk, 0);
  }
  return c;
}

// Cycle k rotates over every disk of every shard.
Cycle rebuild_cycle_k(Rig& rig, int k) {
  return rebuild_cycle(rig, k % kShards, (k / kShards) % kPrime);
}

// ---------------------------------------------------------------------------
// Library metrics, summed over shards

// Strips the "shardN." namespace so shards aggregate under one name.
std::string base_name(const std::string& name) {
  if (name.rfind("shard", 0) == 0) {
    const size_t dot = name.find('.');
    if (dot != std::string::npos) return name.substr(dot + 1);
  }
  return name;
}

struct Agg {
  int64_t value = 0;  // counters and gauges, summed over shards/labels
  std::vector<int64_t> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;

  double pct(double q) const {
    return counts.empty()
               ? 0.0
               : obs::percentile_from_buckets(bounds, counts, q, max);
  }
  double mean() const { return ratio(static_cast<double>(sum), count); }
};

std::map<std::string, Agg> aggregate(const obs::Registry& reg) {
  std::map<std::string, Agg> out;
  for (const obs::MetricSnapshot& m : reg.snapshot().metrics) {
    Agg& a = out[base_name(m.name)];
    if (m.kind != obs::MetricSnapshot::Kind::kHistogram) {
      a.value += m.value;
      continue;
    }
    if (a.counts.empty()) {
      a.bounds = m.bounds;
      a.counts.assign(m.bucket_counts.size(), 0);
    }
    for (size_t i = 0; i < a.counts.size() && i < m.bucket_counts.size(); ++i) {
      a.counts[i] += m.bucket_counts[i];
    }
    a.count += m.count;
    a.sum += m.sum;
    a.max = std::max(a.max, m.max);
  }
  return out;
}

int64_t global_counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Result

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
  std::ostringstream js;
  js << std::setprecision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Confines the process (and every thread it starts later) to the first
// `n` CPUs it may use. On a shared VM a process spread over several vCPUs
// waits, at every cross-CPU wake-up, for a vCPU the host may have
// descheduled; see spec.json for the measured effect.
void pin_to_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    std::cerr << "perfbench: could not pin to " << n << " CPUs\n";
  }
}

// ---------------------------------------------------------------------------
// One run

int run(const Params& p) {
  pin_to_cpus(kCpus);
  const BlockStamp stamp(p.seed, kBlock);
  fs::create_directories(p.work_dir);

  // Set-up, repeated: construction plus the initial full fill. The last
  // rig is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < p.setups; ++i) {
    rig.reset();
    for (const char* sub : {"/disks", "/sidecars"}) {
      fs::remove_all(p.work_dir + sub + std::to_string(i));
    }
    const int64_t t0 = now_ns();
    rig = build_rig(p, i);
    const double built = static_cast<double>(now_ns() - t0) / 1e9;
    setup_s.push_back(built + fill(*rig->pool, stamp));
  }
  volume::StoragePool& pool = *rig->pool;
  const int64_t blocks = pool.capacity() / static_cast<int64_t>(kBlock);
  Shadow shadow(blocks);

  // Phases of the measured window.
  const int64_t window_ns = static_cast<int64_t>(p.seconds * 1e9);
  const int64_t open_ns =
      static_cast<int64_t>(static_cast<double>(window_ns) * p.open_share);
  const std::vector<Plan> plans =
      p.pattern == "stream"
          ? make_stream_plans(p, blocks)
          : make_random_plans(p, blocks, static_cast<double>(open_ns) / 1e9);

  std::vector<CallerStats> stats(kCallers);
  std::atomic<uint64_t> op_seq{1};
  std::vector<std::unique_ptr<Caller>> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.push_back(std::make_unique<Caller>(
        c, pool, shadow, stamp, plans[static_cast<size_t>(c)],
        stats[static_cast<size_t>(c)], op_seq));
  }
  {
    std::vector<std::thread> warm;
    for (auto& c : callers) {
      warm.emplace_back([&c, &p] { c->warmup(p.warmup_ops); });
    }
    for (auto& t : warm) t.join();
  }

  // Baselines: the pool's registry starts the window at zero; process-
  // wide and decorator counters are differenced.
  const int64_t warmup_mismatches =
      aggregate(*rig->registry)["raid.integrity.read_mismatches"].value;
  rig->registry->reset();
  const SlotTotals dev0_total = rig->board->total();
  const std::vector<SlotTotals> dev0_slots = rig->board->per_slot();
  const int64_t tasks0 = global_counter("threadpool.tasks_run");
  const int64_t busy0 = global_counter("threadpool.busy_ns");

  std::vector<Phase> phases;
  const int64_t start = now_ns() + 20'000'000;  // let threads get going
  auto add_phase = [&](bool open, int64_t from, int64_t to) {
    const int first = phases.empty()
                          ? 0
                          : phases.back().first_seg + phases.back().segments;
    const int n = std::max<int>(
        1, static_cast<int>(std::lround(static_cast<double>(to - from) /
                                        (p.segment_ms * 2e6))));
    phases.push_back(Phase{open, from, to, first, 2 * n});
  };
  if (open_ns > 0) add_phase(true, start, start + open_ns);
  if (open_ns < window_ns) add_phase(false, start + open_ns, start + window_ns);
  const int total_segs = phases.back().first_seg + phases.back().segments;
  for (auto& st : stats) st.segs.resize(static_cast<size_t>(total_segs));

  // Traced runs alternate untraced (even) and traced (odd) segments, so
  // the same run measures the tracing overhead.
  std::vector<bool> seg_traced(static_cast<size_t>(total_segs), false);
  std::vector<int64_t> seg_start(static_cast<size_t>(total_segs));
  for (const Phase& ph : phases) {
    for (int s = 0; s < ph.segments; ++s) {
      const size_t g = static_cast<size_t>(ph.first_seg + s);
      seg_start[g] = ph.start_ns + (ph.end_ns - ph.start_ns) * s / ph.segments;
      seg_traced[g] = p.trace && s % 2 == 1;
    }
  }

  std::vector<Cycle> cycles;
  std::atomic<bool> stop_cycles{false};
  std::thread cycler;
  if (p.rebuild_cycles) {
    cycler = std::thread([&] {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start)));
      for (int k = 0; !stop_cycles.load(std::memory_order_relaxed); ++k) {
        try {
          cycles.push_back(rebuild_cycle_k(*rig, k));
        } catch (const std::exception& e) {
          std::cerr << "rebuild cycle " << k << " failed: " << e.what()
                    << "\n";
          cycles.push_back(Cycle{});
        }
        if (!cycles.back().ok) break;
      }
    });
  }
  std::vector<std::thread> threads;
  for (auto& c : callers) {
    threads.emplace_back([&c, &phases] { c->run(phases); });
  }
  for (size_t g = 0; g < seg_start.size(); ++g) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(seg_start[g])));
    SpanLog::global().set_enabled(seg_traced[g]);
  }
  for (auto& t : threads) t.join();
  SpanLog::global().set_enabled(false);
  stop_cycles.store(true, std::memory_order_relaxed);
  if (cycler.joinable()) cycler.join();
  const bool rebuilds_done = pool.wait_for_rebuilds();

  // Window totals, before any post-window work touches the counters.
  const std::map<std::string, Agg> lib = aggregate(*rig->registry);
  const SlotTotals dev_total = rig->board->total() - dev0_total;
  const std::vector<SlotTotals> dev1_slots = rig->board->per_slot();
  const int64_t tasks = global_counter("threadpool.tasks_run") - tasks0;
  const int64_t busy_ns = global_counter("threadpool.busy_ns") - busy0;
  const std::vector<SpanRecord> spans = SpanLog::global().collect();

  // Untimed flush after the window (the stream workload's flush policy).
  if (p.backend == "file") pool.flush();

  // Quiet rebuild cycles after the window; the first one also yields the
  // exact survivor-read count per rebuilt stripe.
  std::vector<Cycle> quiet;
  double survivor_reads_per_stripe = 0;
  const int quiet_n = std::max(p.quiet_cycles, p.trace ? 1 : 0);
  for (int q = 0; q < quiet_n; ++q) {
    const int k = static_cast<int>(cycles.size()) + q;
    const int shard = k % kShards, disk = (k / kShards) % kPrime;
    raid::Raid6Array& array = pool.shard_array(shard);
    int64_t reads_before = 0;
    for (int d = 0; d < kPrime; ++d) {
      if (d != disk) reads_before += array.disk(d).reads();
    }
    quiet.push_back(rebuild_cycle_k(*rig, k));
    if (q == 0) {
      int64_t reads_after = 0;
      for (int d = 0; d < kPrime; ++d) {
        if (d != disk) reads_after += array.disk(d).reads();
      }
      survivor_reads_per_stripe =
          ratio(static_cast<double>(reads_after - reads_before),
                static_cast<double>(p.stripes));
    }
  }

  // Verification: full read-back against the shadow, scrub, and the
  // library's own verify-on-read verdicts.
  int64_t readback_wrong = 0;
  {
    const int64_t span = 8 * pool.chunk_bytes() / static_cast<int64_t>(kBlock);
    std::vector<uint8_t> buf(static_cast<size_t>(span) * kBlock);
    for (int64_t b = 0; b < blocks; b += span) {
      const int64_t n = std::min(span, blocks - b);
      pool.read(b * static_cast<int64_t>(kBlock),
                std::span<uint8_t>(buf.data(), n * kBlock));
      for (int64_t i = 0; i < n; ++i) {
        uint32_t v = 0;
        if (!stamp.check(&buf[i * kBlock], b + i, &v) ||
            v < shadow.completed(b + i) || v > shadow.started(b + i)) {
          if (readback_wrong++ == 0) {
            std::cerr << "read-back: wrong bytes in block " << b + i << "\n";
          }
        }
      }
    }
  }
  const int64_t inconsistent = pool.scrub_all();
  const int64_t mismatches =
      warmup_mismatches +
      aggregate(*rig->registry)["raid.integrity.read_mismatches"].value;
  bool cycles_ok = rebuilds_done;
  for (const Cycle& c : cycles) cycles_ok &= c.ok;
  for (const Cycle& c : quiet) cycles_ok &= c.ok;

  int64_t attempted = 0, failed = 0, wrong = 0;
  for (const CallerStats& s : stats) {
    attempted += s.attempted;
    failed += s.failed;
    wrong += s.wrong;
  }
  const bool correct = readback_wrong == 0 && inconsistent == 0 &&
                       mismatches == 0 && wrong == 0 && failed == 0 &&
                       cycles_ok;
  if (!correct) {
    std::cerr << "CORRECTNESS FAILURE: failed_ops=" << failed
              << " wrong_reads=" << wrong << " readback_wrong="
              << readback_wrong << " scrub_inconsistent=" << inconsistent
              << " integrity_mismatches=" << mismatches
              << " rebuild_cycles_ok=" << cycles_ok << "\n";
  }

  // Merge the callers' per-segment stats.
  std::vector<SegStats> segs(static_cast<size_t>(total_segs));
  std::vector<int64_t> late;
  for (const CallerStats& s : stats) {
    for (size_t g = 0; g < segs.size(); ++g) segs[g].merge(s.segs[g]);
    late.insert(late.end(), s.late_ns.begin(), s.late_ns.end());
  }
  // The gated latencies and rates come from the closed loop; the open
  // loop, when there is one, is reported per layer (see spec.json).
  const Phase& closed = phases.back();
  const Phase* open = phases.front().open ? &phases.front() : nullptr;
  auto over_segs = [&](const Phase& ph, auto&& fn) {
    std::vector<double> v;
    for (int s = 0; s < ph.segments; ++s) {
      const size_t g = static_cast<size_t>(ph.first_seg + s);
      if (seg_traced[g]) continue;  // traced segments carry its overhead
      v.push_back(fn(segs[g], ph));
    }
    return median(v);
  };
  auto seg_seconds = [&](const Phase& ph) {
    return static_cast<double>(ph.end_ns - ph.start_ns) / 1e9 / ph.segments;
  };
  auto lat_us = [&](const Phase* ph, bool write, double q) {
    if (ph == nullptr) return 0.0;
    return over_segs(*ph, [&](const SegStats& s, const Phase&) {
      return percentile(write ? s.write_lat : s.read_lat, q) / 1e3;
    });
  };

  int64_t user_bytes = 0, read_samples = 0, write_samples = 0, ops = 0;
  int64_t call_ns = 0;
  for (const SegStats& s : segs) {
    user_bytes += s.read_bytes + s.write_bytes;
    ops += s.ops;
    call_ns += s.call_ns;
  }
  for (int s = 0; s < closed.segments; ++s) {
    const SegStats& seg = segs[static_cast<size_t>(closed.first_seg + s)];
    read_samples += static_cast<int64_t>(seg.read_lat.size());
    write_samples += static_cast<int64_t>(seg.write_lat.size());
  }

  // Rebuild rate: cycles that ran entirely against the open loop's fixed
  // foreground load, else the quiet cycles after the window.
  std::vector<Cycle> rated;
  for (const Cycle& c : cycles) {
    if (open != nullptr && c.end_ns <= open->end_ns) rated.push_back(c);
  }
  if (!p.rebuild_cycles) rated = quiet;
  const double disk_mib =
      static_cast<double>(pool.shard_array(0).disk(0).size()) / (1 << 20);
  std::vector<double> cycle_mib_s;
  double rebuild_s = 0;
  for (const Cycle& c : rated) {
    const double s = static_cast<double>(c.end_ns - c.start_ns) / 1e9;
    cycle_mib_s.push_back(disk_mib / s);
    rebuild_s += s;
  }

  std::cout << "workload " << p.workload << " seed " << p.seed << ": "
            << p.seconds << " s window, " << attempted << " ops, "
            << cycles.size() + quiet.size() << " rebuild cycles, "
            << read_samples << " read / " << write_samples
            << " write latency samples";
  if (!late.empty()) {
    std::cout << ", open-loop generator late p50/p99/max "
              << percentile(late, 0.5) / 1e3 << "/"
              << percentile(late, 0.99) / 1e3 << "/"
              << percentile(late, 1.0) / 1e3 << " us";
  }
  std::cout << (p.trace ? ", traced" : "") << "\n";

  std::vector<Metric> out;
  if (!p.trace) {
    out = {
        {"setup_s", median(setup_s), "s"},
        {"read_p50_us", lat_us(&closed, false, 0.50), "us"},
        {"read_p99_us", lat_us(&closed, false, 0.99), "us"},
        {"write_p50_us", lat_us(&closed, true, 0.50), "us"},
        {"ops_s", over_segs(closed,
                            [&](const SegStats& s, const Phase& ph) {
                              return s.ops / seg_seconds(ph);
                            }),
         "1/s"},
        {"read_mib_s", over_segs(closed,
                                 [&](const SegStats& s, const Phase& ph) {
                                   return s.read_bytes / seg_seconds(ph) /
                                          (1 << 20);
                                 }),
         "MiB/s"},
        {"write_mib_s", over_segs(closed,
                                  [&](const SegStats& s, const Phase& ph) {
                                    return s.write_bytes / seg_seconds(ph) /
                                           (1 << 20);
                                  }),
         "MiB/s"},
        {"rebuild_mib_s", median(cycle_mib_s), "MiB/s"},
        {"io_amp", ratio(static_cast<double>(dev_total.bytes()), user_bytes),
         "ratio"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    auto get = [&](const std::string& name) -> const Agg& {
      static const Agg empty;
      auto it = lib.find(name);
      return it == lib.end() ? empty : it->second;
    };
    const double reads = static_cast<double>(get("raid.reads").value +
                                             get("raid.degraded_reads").value);
    const double writes = static_cast<double>(
        get("raid.writes").value + get("raid.degraded_writes").value);
    const double element_reads =
        static_cast<double>(get("raid.disk.element_reads").value);
    const double element_accesses =
        element_reads +
        static_cast<double>(get("raid.disk.element_writes").value);
    const double merged =
        static_cast<double>(get("pipeline.writes_merged").value);

    // Span-derived numbers come from the traced segments only.
    std::vector<int64_t> dev_call;
    int64_t dev_ns = 0, tagged_dev_ns = 0, pool_span_ns = 0;
    for (const SpanRecord& s : spans) {
      const int64_t d = s.end_ns - s.start_ns;
      switch (s.kind) {
        case SpanKind::kPoolRead:
        case SpanKind::kPoolWrite: pool_span_ns += d; break;
        case SpanKind::kDeviceRead:
        case SpanKind::kDeviceWrite:
          dev_call.push_back(d);
          dev_ns += d;
          if (s.op_id != 0) tagged_dev_ns += d;
          break;
        default: break;
      }
    }
    const double wait_ns =
        static_cast<double>(get("pool.chunk_lock_wait_ns").sum +
                            get("pipeline.admission_wait_ns").sum +
                            get("raid.stripe_lock_wait_ns").sum);
    const double unattributed =
        std::max(0.0, 1.0 - ratio(wait_ns, static_cast<double>(call_ns)) -
                          ratio(static_cast<double>(tagged_dev_ns),
                                static_cast<double>(pool_span_ns)));

    // Mean time inside pool calls, traced vs untraced segments.
    double traced_ns = 0, traced_ops = 0, plain_ns = 0, plain_ops = 0;
    for (size_t g = 0; g < segs.size(); ++g) {
      (seg_traced[g] ? traced_ns : plain_ns) +=
          static_cast<double>(segs[g].call_ns);
      (seg_traced[g] ? traced_ops : plain_ops) +=
          static_cast<double>(segs[g].ops);
    }
    const double overhead_pct =
        100.0 * (ratio(ratio(traced_ns, traced_ops), ratio(plain_ns, plain_ops)) -
                 1.0);

    int64_t slot_max = 0, slot_min = INT64_MAX;
    for (size_t i = 0; i < dev1_slots.size(); ++i) {
      const int64_t b = (dev1_slots[i] - dev0_slots[i]).bytes();
      slot_max = std::max(slot_max, b);
      slot_min = std::min(slot_min, b);
    }
    const double rebuilt_stripes =
        static_cast<double>(p.stripes) * static_cast<double>(rated.size());

    out = {
        {"volume.chunk_lock_wait_p99_us",
         get("pool.chunk_lock_wait_ns").pct(0.99) / 1e3, "us"},
        {"volume.op_fanout_mean", get("pool.op_fanout").mean(), "shards"},
        {"volume.overhead_p50_us",
         (get("pool.read_latency_ns").pct(0.5) -
          get("raid.read_latency_fine_ns").pct(0.5)) /
             1e3,
         "us"},
        {"pipeline.admission_wait_p99_us",
         get("pipeline.admission_wait_ns").pct(0.99) / 1e3, "us"},
        {"pipeline.merge_ratio", ratio(merged, writes + merged), "ratio"},
        {"array.stripe_lock_wait_p50_us",
         get("raid.stripe_lock_wait_ns").pct(0.5) / 1e3, "us"},
        {"array.stripe_lock_wait_p99_us",
         get("raid.stripe_lock_wait_ns").pct(0.99) / 1e3, "us"},
        {"array.degraded_read_frac",
         ratio(static_cast<double>(get("raid.degraded_reads").value), reads),
         "ratio"},
        {"engine.pool_tasks_per_op",
         ratio(static_cast<double>(tasks), static_cast<double>(ops)),
         "tasks/op"},
        {"engine.pool_busy_s", static_cast<double>(busy_ns) / 1e9, "s"},
        {"engine.coalesce_ratio",
         ratio(element_accesses,
               static_cast<double>(dev_total.read_calls +
                                   dev_total.write_calls)),
         "ratio"},
        {"engine.retries",
         static_cast<double>(get("raid.engine.transient_retries").value),
         "count"},
        {"device.read_ops_per_op",
         ratio(static_cast<double>(dev_total.read_calls),
               static_cast<double>(ops)),
         "calls/op"},
        {"device.write_ops_per_op",
         ratio(static_cast<double>(dev_total.write_calls),
               static_cast<double>(ops)),
         "calls/op"},
        {"device.call_p50_us", percentile(dev_call, 0.50) / 1e3, "us"},
        {"device.call_p99_us", percentile(dev_call, 0.99) / 1e3, "us"},
        {"device.busy_share",
         ratio(static_cast<double>(dev_ns), static_cast<double>(pool_span_ns)),
         "ratio"},
        {"device.load_balance",
         ratio(static_cast<double>(slot_max),
               static_cast<double>(std::max<int64_t>(slot_min, 1))),
         "ratio"},
        {"integrity.verified_per_element_read",
         ratio(static_cast<double>(get("raid.integrity.elements_verified").value),
               element_reads),
         "ratio"},
        {"integrity.read_mismatches", static_cast<double>(mismatches),
         "count"},
        {"rebuild.stripes_per_s", ratio(rebuilt_stripes, rebuild_s), "1/s"},
        {"rebuild.survivor_reads_per_stripe", survivor_reads_per_stripe,
         "elements"},
        {"journal.intents_per_write",
         ratio(static_cast<double>(get("raid.journal.intents_opened").value),
               writes),
         "ratio"},
        {"trace.unattributed_share", unattributed, "ratio"},
        {"bench.gen_late_p99_us", percentile(late, 0.99) / 1e3, "us"},
        {"bench.open_read_p50_us", lat_us(open, false, 0.50), "us"},
        {"bench.open_read_p99_us", lat_us(open, false, 0.99), "us"},
        {"bench.open_write_p50_us", lat_us(open, true, 0.50), "us"},
        {"bench.open_write_p99_us", lat_us(open, true, 0.99), "us"},
        {"bench.trace_overhead_pct", overhead_pct, "%"},
        {"bench.error_rate",
         ratio(static_cast<double>(failed + wrong),
               static_cast<double>(attempted)),
         "ratio"},
        {"bench.read_samples", static_cast<double>(read_samples), "count"},
        {"bench.write_samples", static_cast<double>(write_samples), "count"},
        // Closed-loop write p99: reported, not gated. On rebuild-mem it is
        // the wait behind the CPU-bound rebuild worker on the one CPU, and
        // it moved 38% between two sets of runs (see spec.json).
        {"write_p99_us", lat_us(&closed, true, 0.99), "us"},
    };
    if (!p.trace_file.empty()) SpanLog::write_tsv(p.trace_file, spans, 200000);
  }
  print_result(correct, std::max<int64_t>(attempted, 1), failed + wrong, out);
  rig.reset();
  for (int i = 0; i < p.setups; ++i) {
    for (const char* sub : {"/disks", "/sidecars"}) {
      fs::remove_all(p.work_dir + sub + std::to_string(i));
    }
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
