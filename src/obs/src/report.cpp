#include "acp/obs/report.hpp"

#include <ostream>

#include "acp/obs/json.hpp"

namespace acp::obs {

void RunReport::set_config(std::string key, std::string value) {
  config_.emplace_back(std::move(key), ConfigValue(std::move(value)));
}

void RunReport::set_config(std::string key, double value) {
  config_.emplace_back(std::move(key), ConfigValue(value));
}

void RunReport::set_config(std::string key, std::uint64_t value) {
  config_.emplace_back(std::move(key), ConfigValue(value));
}

void RunReport::set_config(std::string key, bool value) {
  config_.emplace_back(std::move(key), ConfigValue(value));
}

void RunReport::add_metric(std::string name, const Summary& summary) {
  metrics_.emplace_back(std::move(name), summary);
}

void RunReport::set_metrics_snapshot(MetricsSnapshot snapshot) {
  snapshot_ = std::move(snapshot);
}

void RunReport::write_json(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  json.member("schema", kSchema);

  json.key("config").begin_object();
  for (const auto& [key, value] : config_) {
    json.key(key);
    std::visit([&](const auto& v) { json.value(v); }, value);
  }
  json.end_object();

  json.key("metrics").begin_object();
  for (const auto& [name, summary] : metrics_) {
    json.key(name).begin_object();
    json.member("count", summary.count())
        .member("mean", summary.mean())
        .member("stddev", summary.stddev())
        .member("min", summary.min())
        .member("p50", summary.median())
        .member("p90", summary.p90())
        .member("p99", summary.p99())
        .member("max", summary.max())
        .member("ci95_low", summary.ci95_low())
        .member("ci95_high", summary.ci95_high());
    json.end_object();
  }
  json.end_object();

  json.key("counters").begin_object();
  for (const auto& counter : snapshot_.counters) {
    json.member(counter.name, counter.value);
  }
  json.end_object();

  json.key("gauges").begin_object();
  for (const auto& gauge : snapshot_.gauges) {
    json.member(gauge.name, gauge.value);
  }
  json.end_object();

  json.key("timers").begin_object();
  for (const auto& timer : snapshot_.timers) {
    json.key(timer.name).begin_object();
    json.member("count", timer.count).member("total_ns", timer.total_ns);
    json.end_object();
  }
  json.end_object();

  json.key("histograms").begin_object();
  for (const auto& histogram : snapshot_.histograms) {
    json.key(histogram.name).begin_object();
    json.member("lo", histogram.lo).member("hi", histogram.hi);
    json.key("buckets").begin_array();
    for (const std::uint64_t count : histogram.bucket_counts) {
      json.value(count);
    }
    json.end_array();
    json.member("underflow", histogram.underflow)
        .member("overflow", histogram.overflow);
    json.end_object();
  }
  json.end_object();

  json.end_object();
  os << '\n';
}

}  // namespace acp::obs
