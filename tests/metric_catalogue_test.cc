// The metric catalogue in docs/observability.md must match the code:
// drive an array (write, fail + rebuild, degraded read, scrub,
// publish_disk_metrics) and a 2-shard StoragePool through their
// operations, then require a catalogue row for every metric name either
// registered — in its own registry or the process-global one — and,
// the other way round, require every raid.*, pool.*, pipeline.* and
// threadpool.* name in a catalogue table row to be registered by those
// drives.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codes/registry.h"
#include "obs/metrics.h"
#include "raid/raid6_array.h"
#include "util/rng.h"
#include "volume/storage_pool.h"

namespace dcode {
namespace {

std::string catalogue() {
  std::ifstream in(DCODE_DOCS_DIR "/observability.md");
  EXPECT_TRUE(in.good()) << "cannot open docs/observability.md";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Pool shards register through namespaced views (`shard0.raid.reads`);
// the catalogue documents each per-shard name once, unprefixed.
std::string unsharded(const std::string& name) {
  const size_t dot = name.find('.');
  if (name.rfind("shard", 0) != 0 || dot == std::string::npos || dot == 5) {
    return name;
  }
  for (size_t i = 5; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return name;
  }
  return name.substr(dot + 1);
}

// A documented name appears in backticks, bare or followed by its labels.
std::string undocumented(obs::Registry& reg) {
  const std::string doc = catalogue();
  std::set<std::string> missing;
  for (obs::Registry* r : {&reg, &obs::Registry::global()}) {
    for (const obs::MetricSnapshot& m : r->snapshot().metrics) {
      const std::string name = unsharded(m.name);
      if (doc.find('`' + name + '`') == std::string::npos &&
          doc.find('`' + name + '{') == std::string::npos) {
        missing.insert(name);
      }
    }
  }
  std::string out;
  for (const std::string& name : missing) out += name + "\n";
  return out;
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Pcg32 rng(seed);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

void drive_array(obs::Registry& reg) {
  raid::Raid6Array array(codes::make_layout("dcode", 5), 512, 8, 2, &reg);
  array.enable_journal(8);
  auto data = random_bytes(static_cast<size_t>(array.capacity()), 1);
  array.write(0, data);
  array.fail_disk(1);
  std::vector<uint8_t> out(data.size());
  array.read(0, out);  // degraded
  array.replace_disk(1);
  array.rebuild();
  array.read(0, out);
  EXPECT_EQ(out, data);
  const raid::ScrubReport rep = array.scrub_report({.repair = true});
  EXPECT_TRUE(rep.inconsistent_stripes.empty());
  array.publish_disk_metrics(reg);
}

void drive_pool(obs::Registry& reg) {
  volume::ShardSpec spec;
  spec.prime = 5;
  spec.element_size = 512;
  spec.stripes = 8;
  const int64_t shard_capacity =
      spec.stripes * codes::make_layout(spec.code, spec.prime)->data_count() *
      static_cast<int64_t>(spec.element_size);
  volume::PoolOptions opts;
  opts.chunk_bytes = shard_capacity / 4;
  volume::StoragePool pool(spec, 2, opts, &reg);
  auto data = random_bytes(static_cast<size_t>(pool.capacity()), 2);
  pool.write(0, data);
  std::vector<uint8_t> out(data.size());
  pool.read(0, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pool.scrub_all(), 0);
}

TEST(MetricCatalogue, EveryArrayMetricIsDocumented) {
  obs::Registry reg;
  drive_array(reg);
  EXPECT_EQ(undocumented(reg), "");
}

TEST(MetricCatalogue, EveryPoolMetricIsDocumented) {
  obs::Registry reg;
  drive_pool(reg);
  EXPECT_EQ(undocumented(reg), "");
}

// Every layer metric named in the first cell of a catalogue table row,
// bare or with its labels.
std::set<std::string> documented_layer_metrics() {
  static const std::regex name(
      "`((?:raid|pool|pipeline|threadpool)\\.[a-z0-9_.]+)[`{]");
  std::set<std::string> out;
  std::istringstream in(catalogue());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    // The first cell ends at the first '|' not escaped inside a label set.
    size_t end = 1;
    while ((end = line.find('|', end)) != std::string::npos &&
           line[end - 1] == '\\') {
      ++end;
    }
    const std::string cell = line.substr(0, end);
    for (std::sregex_iterator it(cell.begin(), cell.end(), name), stop;
         it != stop; ++it) {
      out.insert((*it)[1]);
    }
  }
  return out;
}

TEST(MetricCatalogue, EveryDocumentedMetricIsRegistered) {
  obs::Registry array_reg, pool_reg;
  drive_array(array_reg);
  drive_pool(pool_reg);
  std::set<std::string> registered;
  for (obs::Registry* r : {&array_reg, &pool_reg, &obs::Registry::global()}) {
    for (const obs::MetricSnapshot& m : r->snapshot().metrics) {
      registered.insert(unsharded(m.name));
    }
  }
  const std::set<std::string> documented = documented_layer_metrics();
  EXPECT_GT(documented.size(), 50u) << "catalogue rows not parsed";
  std::string stale;
  for (const std::string& name : documented) {
    if (registered.count(name) == 0) stale += name + "\n";
  }
  EXPECT_EQ(stale, "");
}

}  // namespace
}  // namespace dcode
