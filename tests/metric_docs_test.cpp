// The documented metric table must match the code: one canonical run per
// engine (sync at engine_threads 2, async, lockstep, gossip, and sync
// over a remote billboard) with the registry on. Every counter, timer,
// gauge and histogram a run records appears in docs/observability.md's
// instrumentation table with the right kind, and every name the table
// gives is recorded by at least one of the runs.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "acp/billboard/server.hpp"
#include "acp/obs/metrics.hpp"
#include "acp/scenario/spec.hpp"
#include "acp/sim/scenario_driver.hpp"

namespace acp::test {
namespace {

using NameKinds = std::map<std::string, std::string>;

/// Rows "| `name` | kind | ..." of the "### Instrumentation" section.
NameKinds documented() {
  std::ifstream file(ACP_OBSERVABILITY_DOC);
  EXPECT_TRUE(file.good()) << ACP_OBSERVABILITY_DOC;
  NameKinds names;
  bool in_section = false;
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line == "### Instrumentation";
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::size_t name_end = line.find("` | ", 3);
    const std::size_t kind_end = line.find(" |", name_end + 4);
    if (name_end == std::string::npos || kind_end == std::string::npos) {
      ADD_FAILURE() << "malformed table row: " << line;
      continue;
    }
    names[line.substr(3, name_end - 3)] =
        line.substr(name_end + 4, kind_end - name_end - 4);
  }
  return names;
}

/// Names the run recorded anything under, with their kind.
NameKinds emitted(const scenario::ScenarioSpec& spec) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  obs::MetricsRegistry::set_enabled(true);
  (void)sim::run_scenario_stats(spec);
  obs::MetricsRegistry::set_enabled(false);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  registry.reset();

  NameKinds names;
  for (const auto& sample : snapshot.counters) {
    if (sample.value > 0) names[sample.name] = "counter";
  }
  for (const auto& sample : snapshot.gauges) {
    if (sample.value != 0.0) names[sample.name] = "gauge";
  }
  for (const auto& sample : snapshot.timers) {
    if (sample.count > 0) names[sample.name] = "timer";
  }
  for (const auto& sample : snapshot.histograms) {
    std::uint64_t total = sample.underflow + sample.overflow;
    for (const std::uint64_t count : sample.bucket_counts) total += count;
    if (total > 0) names[sample.name] = "histogram";
  }
  return names;
}

scenario::ScenarioSpec canonical(const char* engine) {
  scenario::ScenarioSpec spec;
  spec.n = 256;
  spec.m = 256;
  spec.alpha = 0.7;
  spec.trials = 2;
  spec.threads = 2;  // the trial driver's ThreadPool
  spec.engine = engine;
  spec.adversary = "eager";
  if (spec.engine == "sync") {
    spec.engine_threads = 2;
    spec.adversary = "splitvote";
  }
  if (spec.engine == "async") spec.protocol = "collab";
  spec.max_rounds = 20000;
  spec.validate();
  return spec;
}

TEST(MetricDocs, TableMatchesWhatRunsRecord) {
  const NameKinds table = documented();
  ASSERT_FALSE(table.empty()) << "no instrumentation table found";

  BillboardServer server(net::Endpoint::parse("tcp:127.0.0.1:0"));
  server.start();
  scenario::ScenarioSpec remote = canonical("sync");
  remote.billboard = server.endpoint().to_string();

  std::map<std::string, scenario::ScenarioSpec> runs = {
      {"sync", canonical("sync")},         {"async", canonical("async")},
      {"lockstep", canonical("lockstep")}, {"gossip", canonical("gossip")},
      {"remote", remote},
  };
  std::set<std::string> seen;
  for (const auto& [label, spec] : runs) {
    SCOPED_TRACE(label);
    for (const auto& [name, kind] : emitted(spec)) {
      seen.insert(name);
      const auto row = table.find(name);
      if (row == table.end()) {
        ADD_FAILURE() << kind << " '" << name
                      << "' is recorded but not in docs/observability.md";
      } else {
        EXPECT_EQ(row->second, kind) << name;
      }
    }
  }
  server.stop();

  for (const auto& [name, kind] : table) {
    EXPECT_TRUE(seen.count(name) == 1)
        << kind << " '" << name
        << "' is documented but no canonical run records it";
  }
}

}  // namespace
}  // namespace acp::test
