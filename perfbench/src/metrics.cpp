#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "stats.hpp"

namespace perfbench {

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string MetricSet::to_json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[32];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

namespace {

constexpr double kNsPerMs = 1e6;

/// Per-layer values of one traced trial (no pooled percentiles).
MetricSet one_trial(const acp::scenario::ScenarioSpec& spec,
                    const TrialResult& t) {
  const TrialTrace& tr = *t.trace;
  MetricSet m;
  m.set("setup.world_ms", t.world_ms, "ms");
  m.set("setup.population_ms", t.population_ms, "ms");
  m.set("setup.connect_ms", t.connect_ms, "ms");

  std::uint64_t steps = 0;
  std::uint64_t step_ns = 0;
  std::vector<double> lane_busy_ms;
  for (std::size_t i = 0; i < tr.core.lanes_used(); ++i) {
    steps += tr.core.lane_at(i).steps;
    step_ns += tr.core.lane_at(i).step_ns;
    lane_busy_ms.push_back(static_cast<double>(tr.core.lane_at(i).busy_ns) /
                           kNsPerMs);
  }
  double rounds_ms = 0.0;
  double round_max_ms = 0.0;
  double critical_ms = 0.0;
  double wait_ms = 0.0;
  for (const TrialTrace::RoundSpan& r : tr.rounds) {
    const double ms = static_cast<double>(r.end_ns - r.start_ns) / kNsPerMs;
    rounds_ms += ms;
    round_max_ms = std::max(round_max_ms, ms);
    critical_ms += static_cast<double>(r.core.critical_ns) / kNsPerMs;
    wait_ms += static_cast<double>(r.core.wait_ns) / kNsPerMs;
  }
  const double round_begin_ms =
      static_cast<double>(tr.core.round_begin_ns) / kNsPerMs;
  m.set("core.round_begin_ms", round_begin_ms, "ms");
  m.set("core.round_begin_calls",
        static_cast<double>(tr.core.round_begin_calls), "count");
  m.set("core.steps", static_cast<double>(steps), "count");
  m.set("core.step_ns_mean",
        steps > 0 ? static_cast<double>(step_ns) / static_cast<double>(steps)
                  : 0.0,
        "ns");
  m.set("core.critical_ms", critical_ms, "ms");

  const double adversary_ms =
      static_cast<double>(tr.adversary.plan_ns) / kNsPerMs;
  m.set("adversary.plan_ms", adversary_ms, "ms");
  m.set("adversary.posts", static_cast<double>(tr.adversary.posts), "count");

  double commit_ms = 0.0;
  for (double ns : tr.commits.ns) commit_ms += ns / kNsPerMs;
  const double parts = critical_ms + round_begin_ms + adversary_ms + commit_ms;
  const bool gossip = spec.engine == "gossip";

  m.set("engine.rounds", static_cast<double>(tr.rounds.size()), "count");
  m.set("engine.round_ms_p50", 0.0, "ms");  // pooled over trials
  m.set("engine.round_ms_max", round_max_ms, "ms");
  m.set("engine.self_ms", gossip ? 0.0 : rounds_ms - parts, "ms");

  const double busy_max =
      lane_busy_ms.empty()
          ? 0.0
          : *std::max_element(lane_busy_ms.begin(), lane_busy_ms.end());
  const double busy_mean = mean(lane_busy_ms);
  m.set("concurrency.lanes", static_cast<double>(lane_busy_ms.size()),
        "count");
  m.set("concurrency.lane_busy_ms_max", busy_max, "ms");
  m.set("concurrency.lane_busy_ms_mean", busy_mean, "ms");
  m.set("concurrency.imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0,
        "ratio");
  m.set("concurrency.wait_ms", wait_ms, "ms");

  m.set("billboard.commits", static_cast<double>(tr.commits.ns.size()),
        "count");
  m.set("billboard.posts", static_cast<double>(tr.commits.posts_committed),
        "count");
  m.set("billboard.bytes", static_cast<double>(t.billboard_bytes), "bytes");
  m.set("billboard.commit_ms", commit_ms, "ms");
  m.set("billboard.commit_us_p50", 0.0, "us");  // pooled over trials
  m.set("billboard.commit_us_p99", 0.0, "us");

  const ServicePath path = t.service.value_or(ServicePath{});
  m.set("wire.encode_ns_mean", path.encode_ns_mean, "ns");
  m.set("server.apply_ns_mean", path.server_apply_ns_mean, "ns");
  m.set("client.mirror_apply_ns_mean", path.mirror_apply_ns_mean, "ns");
  const double rpc_us_mean = t.service ? mean(t.rpc_ns) * 1e-3 : 0.0;
  m.set("net.wait_us_mean",
        t.service ? rpc_us_mean - (path.encode_ns_mean +
                                   path.server_apply_ns_mean +
                                   path.mirror_apply_ns_mean) *
                                      1e-3
                  : 0.0,
        "us");
  const ServerStats server = t.server.value_or(ServerStats{});
  m.set("server.commits", static_cast<double>(server.commits), "count");
  m.set("server.posts", static_cast<double>(server.posts), "count");
  m.set("server.errors", static_cast<double>(server.errors), "count");

  m.set("gossip.self_ms", gossip ? rounds_ms - parts : 0.0, "ms");
  m.set("gossip.replica_posts", static_cast<double>(t.replica_posts), "count");
  m.set("gossip.union_posts",
        gossip ? static_cast<double>(tr.final_board_size) : 0.0, "count");

  const double wall_ms = t.run_s * 1e3;
  m.set("trace.wall_ms", wall_ms, "ms");
  m.set("trace.rounds_ms", rounds_ms, "ms");
  m.set("trace.leftover_ms", wall_ms - rounds_ms, "ms");
  m.set("trace.overhead_ms", 0.0, "ms");  // from the untraced twins
  return m;
}

}  // namespace

MetricSet layer_metrics(const acp::scenario::ScenarioSpec& spec,
                        const std::vector<double>& untraced_run_s,
                        const std::vector<TrialResult>& traced) {
  std::vector<MetricSet::Metric> sum;
  std::vector<double> round_ms;
  std::vector<double> commit_us;
  std::vector<double> traced_s;
  for (const TrialResult& t : traced) {
    // one_trial always lists the same metrics in the same order.
    const std::vector<MetricSet::Metric> one = one_trial(spec, t).metrics();
    if (sum.empty()) {
      sum = one;
    } else {
      for (std::size_t i = 0; i < one.size(); ++i) sum[i].value += one[i].value;
    }
    for (const TrialTrace::RoundSpan& r : t.trace->rounds) {
      round_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / kNsPerMs);
    }
    for (double ns : t.trace->commits.ns) commit_us.push_back(ns * 1e-3);
    traced_s.push_back(t.run_s);
  }
  MetricSet out;
  const double trials = static_cast<double>(traced.size());
  for (const MetricSet::Metric& metric : sum) {
    out.set(metric.name, metric.value / trials, metric.unit);
  }
  out.set("engine.round_ms_p50", percentile(round_ms, 0.5), "ms");
  out.set("billboard.commit_us_p50", percentile(commit_us, 0.5), "us");
  out.set("billboard.commit_us_p99", percentile(commit_us, 0.99), "us");
  out.set("trace.overhead_ms",
          (median(traced_s) - median(untraced_run_s)) * 1e3, "ms");
  return out;
}

}  // namespace perfbench
