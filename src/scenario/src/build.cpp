#include "acp/scenario/build.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "acp/baseline/collab_baseline.hpp"
#include "acp/baseline/trivial_random.hpp"
#include "acp/billboard/service.hpp"
#include "acp/engine/async_engine.hpp"
#include "acp/engine/lockstep.hpp"
#include "acp/engine/scheduler.hpp"
#include "acp/engine/sync_engine.hpp"
#include "acp/gossip/gossip_engine.hpp"
#include "acp/scenario/registry.hpp"
#include "acp/world/builders.hpp"

namespace acp::scenario {

namespace {

/// Engine-stream seed derivation shared with the historical acpsim path;
/// keeping it bit-for-bit preserves reproducibility of published runs.
constexpr std::uint64_t kEngineSeedSalt = 0x2545F491;

std::unique_ptr<Scheduler> build_scheduler(const ScenarioSpec& spec) {
  if (spec.scheduler == "rr") return std::make_unique<RoundRobinScheduler>();
  if (spec.scheduler == "random") return std::make_unique<RandomScheduler>();
  throw std::invalid_argument("unknown scheduler '" + spec.scheduler +
                              "' (known: rr, random)");
}

/// Per-trial billboard backend. Returns null for "inproc" — the engines'
/// kernel-owned default, which skips the service seam entirely — and a
/// fresh private remote board otherwise. Dimensions come from the built
/// world (under cost-classes the object count is derived, not spec.m).
std::unique_ptr<BillboardService> build_billboard(const ScenarioSpec& spec,
                                                  const World& world,
                                                  Billboard::Mode mode) {
  const auto backend = BillboardBackendSpec::parse(spec.billboard);
  if (backend.in_process) return nullptr;
  return make_billboard_service(backend, spec.n, world.num_objects(), mode);
}

}  // namespace

std::size_t honest_count(double alpha, std::size_t n) {
  const long long rounded = std::llround(alpha * static_cast<double>(n));
  if (rounded <= 0) return 0;
  return std::min(n, static_cast<std::size_t>(rounded));
}

World build_world(const ScenarioSpec& spec, Rng& rng) {
  const std::string kind = spec.resolved_world();
  if (kind == "cost-classes") {
    CostClassWorldOptions opts;
    opts.num_classes = spec.cost_classes;
    opts.objects_per_class =
        std::max<std::size_t>(1, spec.m / spec.cost_classes);
    opts.cheapest_good_class = spec.cheapest_good_class;
    return make_cost_class_world(opts, rng);
  }
  if (kind == "top-beta") {
    return make_top_beta_world(spec.m, spec.good, rng);
  }
  if (kind == "simple") {
    return make_simple_world(spec.m, spec.good, rng);
  }
  throw std::invalid_argument("unknown world '" + kind +
                              "' (known: auto, simple, cost-classes, "
                              "top-beta)");
}

Population build_population(const ScenarioSpec& spec, Rng& rng) {
  return Population::with_random_honest(spec.n,
                                        honest_count(spec.alpha, spec.n), rng);
}

std::vector<Round> build_arrivals(const ScenarioSpec& spec,
                                  const Population& population) {
  if (spec.arrival_window <= 0) return {};
  const auto& honest = population.honest_players();
  const std::size_t h = honest.size();
  std::vector<Round> arrivals(population.num_players(), 0);
  for (std::size_t i = 0; i < h; ++i) {
    arrivals[honest[i].value()] = static_cast<Round>(
        (static_cast<std::uint64_t>(i) *
         static_cast<std::uint64_t>(spec.arrival_window)) /
        h);
  }
  return arrivals;
}

std::vector<Round> build_departures(const ScenarioSpec& spec,
                                    const Population& population) {
  if (spec.depart_frac <= 0.0) return {};
  const auto& honest = population.honest_players();
  const std::size_t h = honest.size();
  const std::size_t leavers = std::min(
      h, static_cast<std::size_t>(
             std::ceil(spec.depart_frac * static_cast<double>(h))));
  std::vector<Round> departures(population.num_players(), -1);
  for (std::size_t i = h - leavers; i < h; ++i) {
    departures[honest[i].value()] = spec.depart_round;
  }
  return departures;
}

RunResult run_scenario_trial(
    const ScenarioSpec& spec, std::uint64_t seed, RunObserver* observer,
    const std::function<void(PlayerId, const Billboard&)>& on_final_replica) {
  Registries& reg = registries();

  Rng rng(seed);
  const World world = build_world(spec, rng);
  const Population population = build_population(spec, rng);
  const std::vector<Round> arrivals = build_arrivals(spec, population);
  const std::vector<Round> departures = build_departures(spec, population);
  const std::uint64_t engine_seed = seed ^ kEngineSeedSalt;

  const ProtocolBuildContext protocol_ctx{spec, world};

  if (spec.engine == "gossip") {
    // Per-node protocol instances over the gossip substrate. Build one
    // probe instance anyway so protocol/adversary parameters are
    // validated before the run; the split-vote adversary needs a single
    // observed instance, which does not exist here.
    auto probe_protocol = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = reg.adversaries.make(
        spec.adversary, AdversaryBuildContext{spec, *probe_protocol});
    if (spec.adversary == "splitvote") {
      throw std::invalid_argument(
          "adversary 'splitvote' is not available on engine 'gossip' "
          "(there is no single protocol instance to observe)");
    }
    GossipConfig config;
    config.fanout = spec.fanout;
    config.substrate = spec.substrate == "exchange"
                           ? GossipSubstrate::kExchange
                           : GossipSubstrate::kDigest;
    config.pull = spec.pull;
    config.loss_prob = spec.loss_prob;
    config.max_rounds = spec.max_rounds;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.observer = observer;
    config.on_final_replica = on_final_replica;
    // The union log is replica-mode (posts arrive stamped with their
    // origin rounds), so a remote backend opens a replica board.
    const auto billboard =
        build_billboard(spec, world, Billboard::Mode::kReplica);
    config.billboard = billboard.get();
    return GossipEngine::run(
        world, population,
        [&] { return reg.protocols.make(spec.protocol, protocol_ctx); },
        *adversary, config);
  }

  if (spec.engine == "sync") {
    auto protocol = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = reg.adversaries.make(
        spec.adversary, AdversaryBuildContext{spec, *protocol});
    SyncRunConfig config;
    config.max_rounds = spec.max_rounds;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.observer = observer;
    config.engine_threads = spec.engine_threads;
    const auto billboard =
        build_billboard(spec, world, Billboard::Mode::kAuthoritative);
    config.billboard = billboard.get();
    return SyncEngine::run(world, population, *protocol, *adversary, config);
  }

  if (spec.engine == "lockstep") {
    auto protocol = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = reg.adversaries.make(
        spec.adversary, AdversaryBuildContext{spec, *protocol});
    auto scheduler = build_scheduler(spec);
    LockstepRunConfig config;
    config.max_steps = spec.max_steps;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.observer = observer;
    config.engine_threads = spec.engine_threads;
    const auto billboard =
        build_billboard(spec, world, Billboard::Mode::kAuthoritative);
    config.billboard = billboard.get();
    return LockstepEngine::run(world, population, *protocol, *adversary,
                               *scheduler, config);
  }

  if (spec.engine == "async") {
    // Only the natively asynchronous protocols run here; synchronous
    // protocols go through engine "lockstep" (the timestamp synchronizer).
    std::unique_ptr<AsyncProtocol> protocol;
    if (spec.protocol == "collab") {
      protocol = std::make_unique<AsyncCollabProtocol>();
    } else if (spec.protocol == "trivial") {
      protocol = std::make_unique<AsyncTrivialRandomProtocol>();
    } else {
      throw std::invalid_argument(
          "engine 'async' supports protocol 'collab' or 'trivial'; run "
          "synchronous protocols on engine 'lockstep'");
    }
    auto probe_protocol = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = reg.adversaries.make(
        spec.adversary, AdversaryBuildContext{spec, *probe_protocol});
    auto scheduler = build_scheduler(spec);
    AsyncRunConfig config;
    config.max_steps = spec.max_steps;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.observer = observer;
    const auto billboard =
        build_billboard(spec, world, Billboard::Mode::kAuthoritative);
    config.billboard = billboard.get();
    return AsyncEngine::run(world, population, *protocol, *adversary,
                            *scheduler, config);
  }

  throw std::invalid_argument("unknown engine '" + spec.engine +
                              "' (known: sync, async, lockstep, gossip)");
}

}  // namespace acp::scenario
