#include "golden_digest.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "acp/engine/observer.hpp"
#include "acp/obs/bandwidth.hpp"
#include "acp/rng/splitmix64.hpp"
#include "acp/scenario/build.hpp"
#include "acp/sim/runner.hpp"

namespace acp::golden {

namespace {

/// Order-sensitive 64-bit fold (splitmix64 finalizer per word).
class Hasher {
 public:
  void add(std::uint64_t word) noexcept { state_ = mix64(state_, word); }
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool flag) noexcept { add(std::uint64_t{flag ? 1u : 0u}); }
  void add(std::int64_t value) noexcept {
    add(static_cast<std::uint64_t>(value));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

void add_post(Hasher& hasher, const Post& post) {
  hasher.add(std::uint64_t{post.author.value()});
  hasher.add(std::int64_t{post.round});
  hasher.add(std::uint64_t{post.object.value()});
  hasher.add(post.reported_value);
  hasher.add(post.positive);
}

/// Hashes the log the observer sees at each on_round_end; the last one
/// is the run's final log. Boards only ever append, so each call folds in
/// just the posts added since the previous one (and starts over if it is
/// handed a different board).
class LogDigest final : public RunObserver {
 public:
  void on_round_end(Round /*round*/, const Billboard& billboard,
                    std::size_t /*active_honest*/,
                    std::size_t /*satisfied_honest*/,
                    std::size_t /*probes_this_round*/) override {
    const PostRange posts = billboard.posts();
    if (&billboard != board_ || posts.size() < folded_) {
      board_ = &billboard;
      folded_ = 0;
      hasher_ = Hasher{};
    }
    for (; folded_ < posts.size(); ++folded_) add_post(hasher_, posts[folded_]);
  }

  [[nodiscard]] std::uint64_t digest() const noexcept {
    Hasher sized = hasher_;
    sized.add(std::uint64_t{folded_});
    return sized.value();
  }

 private:
  const Billboard* board_ = nullptr;
  std::size_t folded_ = 0;
  Hasher hasher_;
};

void add_result(Hasher& hasher, const RunResult& result) {
  hasher.add(std::int64_t{result.rounds_executed});
  hasher.add(result.all_honest_satisfied);
  hasher.add(std::uint64_t{result.total_posts});
  hasher.add(std::uint64_t{result.players.size()});
  for (const PlayerStats& player : result.players) {
    hasher.add(player.honest);
    hasher.add(static_cast<std::uint64_t>(player.probes));
    hasher.add(std::int64_t{player.satisfied_round});
    hasher.add(player.probed_good);
    hasher.add(player.cost_paid);
  }
}

scenario::ScenarioSpec with(scenario::ScenarioSpec spec,
                            std::initializer_list<const char*> overrides) {
  for (const char* assignment : overrides) {
    scenario::apply_override(spec, assignment);
  }
  spec.validate();
  return spec;
}

/// The matrix base: DISTILL at n = m = 128, two trials.
scenario::ScenarioSpec small_base() {
  scenario::ScenarioSpec spec;
  spec.n = 128;
  spec.m = 128;
  spec.good = 2;
  spec.alpha = 0.7;
  spec.trials = 2;
  spec.seed = 20050601;
  spec.max_rounds = 20000;
  spec.max_steps = 2000000;
  return spec;
}

}  // namespace

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;

  // Every checked-in scenario, shrunk to n, m <= 128 and two trials.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(ACP_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::load_file(file.string());
    spec.n = std::min<std::size_t>(spec.n, 128);
    if (spec.resolved_world() != "cost-classes") {
      spec.m = std::min<std::size_t>(spec.m, 128);
    }
    spec.trials = 2;
    spec.validate();
    cases.push_back({"scenario_" + file.stem().string(), spec});
  }

  const scenario::ScenarioSpec base = small_base();

  // Engines.
  cases.push_back({"engine_sync_t1", with(base, {"adversary=splitvote"})});
  cases.push_back({"engine_sync_t2", with(base, {"adversary=splitvote",
                                                 "engine_threads=2"})});
  cases.push_back({"engine_lockstep", with(base, {"engine=lockstep",
                                                  "adversary=eager"})});
  cases.push_back({"engine_async", with(base, {"engine=async",
                                               "protocol=collab",
                                               "adversary=slander"})});
  cases.push_back({"engine_gossip_loss_churn",
                   with(base, {"engine=gossip", "adversary=eager",
                               "fanout=3", "pull=true", "loss_prob=0.2",
                               "arrival_window=8", "depart_frac=0.1",
                               "depart_round=12"})});

  // Adversaries (sync engine, DISTILL).
  cases.push_back({"adversary_splitvote",
                   with(base, {"adversary=splitvote",
                               "adversary.flood_budget_fraction=0.6",
                               "adversary.seed_budget_fraction=0.1"})});
  cases.push_back({"adversary_collude", with(base, {"adversary=collude",
                                                    "adversary.decoys=8"})});
  cases.push_back({"adversary_liar", with(base, {"adversary=liar"})});
  cases.push_back({"adversary_targeted_slander",
                   with(base, {"adversary=targeted-slander"})});

  // Protocols that read the ledger in different ways.
  cases.push_back({"protocol_distill", with(base, {"adversary=eager"})});
  cases.push_back({"protocol_distill_hp", with(base, {"protocol=distill-hp",
                                                      "adversary=eager"})});
  cases.push_back({"protocol_no_lt", with(base, {"protocol=no-lt",
                                                 "adversary=eager"})});
  cases.push_back({"protocol_cost_classes",
                   with(base, {"protocol=cost-classes", "m=160",
                               "cost_classes=5", "cheapest_good_class=2",
                               "good=1"})});
  cases.push_back({"protocol_guess_alpha", with(base, {"protocol=guess-alpha",
                                                       "adversary=eager"})});
  cases.push_back({"protocol_distill_trust",
                   with(base, {"adversary=collude", "protocol.trust=true"})});
  cases.push_back({"protocol_distill_veto",
                   with(base, {"adversary=slander", "protocol.veto=0.3"})});

  // Gossip cases also pin their final replicas and metered bits.
  std::vector<GoldenCase> pinned;
  for (const GoldenCase& golden : cases) {
    pinned.push_back(golden);
    if (golden.spec.engine != "gossip") continue;
    pinned.push_back({golden.name + "_replicas", golden.spec, Pin::kReplicas});
    pinned.push_back({golden.name + "_bits", golden.spec, Pin::kBits});
  }
  return pinned;
}

std::uint64_t case_digest(const GoldenCase& golden) {
  const scenario::ScenarioSpec& spec = golden.spec;
  Hasher hasher;
  for (const std::uint64_t seed :
       derive_trial_seeds(spec.seed, spec.trials)) {
    switch (golden.pin) {
      case Pin::kResult: {
        LogDigest log;
        const RunResult result = scenario::run_scenario_trial(spec, seed, &log);
        add_result(hasher, result);
        hasher.add(log.digest());
        break;
      }
      case Pin::kReplicas: {
        const auto fold_replica = [&](PlayerId node, const Billboard& replica) {
          hasher.add(std::uint64_t{node.value()});
          hasher.add(std::uint64_t{replica.size()});
          for (const Post& post : replica.posts()) add_post(hasher, post);
        };
        static_cast<void>(
            scenario::run_scenario_trial(spec, seed, nullptr, fold_replica));
        break;
      }
      case Pin::kBits: {
        obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
        const bool was_enabled = obs::MetricsRegistry::enabled();
        registry.reset();
        obs::MetricsRegistry::set_enabled(true);
        static_cast<void>(scenario::run_scenario_trial(spec, seed));
        obs::MetricsRegistry::set_enabled(was_enabled);
        for (const obs::IoChannel channel :
             {obs::IoChannel::kGossipDigest, obs::IoChannel::kGossipDelta,
              obs::IoChannel::kLedgerIngest}) {
          hasher.add(
              registry.counter(obs::io_metric_name(channel, "read_bits"))
                  .value());
          hasher.add(
              registry.counter(obs::io_metric_name(channel, "write_bits"))
                  .value());
        }
        break;
      }
    }
  }
  return hasher.value();
}

std::string format_digest(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

std::map<std::string, std::uint64_t> parse_table(const std::string& text) {
  std::map<std::string, std::uint64_t> table;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    if (!(fields >> name >> hex) || hex.size() != 16) {
      throw std::invalid_argument("golden table: malformed line '" + line +
                                  "'");
    }
    table[name] = std::stoull(hex, nullptr, 16);
  }
  return table;
}

}  // namespace acp::golden
