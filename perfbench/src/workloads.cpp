#include "workloads.hpp"

#include <stdexcept>

#include "acp/baseline/collab_baseline.hpp"
#include "acp/billboard/server_core.hpp"
#include "acp/billboard/service.hpp"
#include "acp/billboard/wire.hpp"
#include "acp/engine/async_engine.hpp"
#include "acp/engine/scheduler.hpp"
#include "acp/engine/sync_engine.hpp"
#include "acp/gossip/gossip_engine.hpp"
#include "acp/scenario/build.hpp"
#include "acp/scenario/registry.hpp"

namespace perfbench {

namespace {

using acp::scenario::ScenarioSpec;

/// scenario::run_scenario_trial derives the engine seed this way; the
/// self-test fails if the two drift apart.
constexpr std::uint64_t kEngineSeedSalt = 0x2545F491;

double ms_since(Clock::time_point from) { return seconds_since(from) * 1e3; }

ScenarioSpec sync_spec(std::size_t engine_threads) {
  ScenarioSpec spec;
  spec.name = engine_threads == 1 ? "sync_n100k_t1" : "sync_n100k_t2";
  spec.n = 100000;
  spec.m = 100000;
  spec.good = 1;
  spec.alpha = 0.9;
  spec.protocol = "distill";
  spec.adversary = "splitvote";
  spec.engine = "sync";
  spec.engine_threads = engine_threads;
  return spec;
}

std::uint64_t encoded_bytes(const acp::Billboard& board) {
  std::vector<std::uint8_t> scratch;
  std::uint64_t bytes = 0;
  for (const acp::Post& post : board.posts()) {
    scratch.clear();
    acp::bbwire::encode_post(scratch, post);
    bytes += scratch.size();
  }
  return bytes;
}

bool check_live_honest(const acp::RunResult& result,
                       const std::vector<acp::Round>& departures) {
  if (!result.all_honest_satisfied) return false;
  for (std::size_t p = 0; p < result.players.size(); ++p) {
    const acp::PlayerStats& stats = result.players[p];
    const bool departed = !departures.empty() && departures[p] >= 0;
    if (stats.honest && !stats.satisfied() && !departed) return false;
  }
  return true;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sync_n100k_t1", "sync_n100k_t2", "gossip_n1024", "remote_async_n8192"};
  return names;
}

ScenarioSpec workload_spec(const std::string& name) {
  if (name == "sync_n100k_t1") return sync_spec(1);
  if (name == "sync_n100k_t2") return sync_spec(2);
  if (name == "gossip_n1024") {
    ScenarioSpec spec = ScenarioSpec::load_file("scenarios/gossip_large.json");
    spec.name = name;
    spec.n = 1024;
    spec.m = 1024;
    return spec;
  }
  if (name == "remote_async_n8192") {
    ScenarioSpec spec;
    spec.name = name;
    spec.n = 8192;
    spec.m = 8192;
    spec.alpha = 0.9;
    spec.protocol = "collab";
    spec.adversary = "silent";
    spec.engine = "async";
    spec.scheduler = "rr";
    return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t trial_seed(std::uint64_t run_seed, std::size_t trial) {
  // splitmix64 over (run seed, trial): distinct, well-mixed trial seeds.
  std::uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL +
                    (static_cast<std::uint64_t>(trial) + 1) *
                        0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TrialResult run_trial(const ScenarioSpec& spec, std::uint64_t seed,
                      const TrialOptions& options) {
  namespace sc = acp::scenario;
  sc::Registries& reg = sc::registries();
  TrialResult out;
  if (options.traced) {
    out.trace = std::make_unique<TrialTrace>(is_remote(spec));
  }
  TrialTrace* const trace = out.trace.get();

  const auto setup_start = Clock::now();
  acp::Rng rng(seed);
  const acp::World world = sc::build_world(spec, rng);
  out.world_ms = ms_since(setup_start);
  const auto population_start = Clock::now();
  const acp::Population population = sc::build_population(spec, rng);
  const std::vector<acp::Round> arrivals = sc::build_arrivals(spec, population);
  const std::vector<acp::Round> departures =
      sc::build_departures(spec, population);
  out.population_ms = ms_since(population_start);
  const std::uint64_t engine_seed = seed ^ kEngineSeedSalt;
  const sc::ProtocolBuildContext protocol_ctx{spec, world};

  // The adversary is always built against the registry's own protocol
  // instance: splitvote dynamic_casts it to DistillProtocol.
  const auto wrap_adversary = [&](std::unique_ptr<acp::Adversary> adversary)
      -> std::unique_ptr<acp::Adversary> {
    if (trace == nullptr) return adversary;
    return std::make_unique<TracedAdversary>(std::move(adversary),
                                             trace->adversary);
  };
  const auto wrap_protocol = [&](std::unique_ptr<acp::Protocol> protocol)
      -> std::unique_ptr<acp::Protocol> {
    if (trace == nullptr) return protocol;
    return std::make_unique<TracedProtocol>(std::move(protocol), trace->core);
  };

  if (spec.engine == "sync") {
    auto inner = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = wrap_adversary(
        reg.adversaries.make(spec.adversary, {spec, *inner}));
    auto protocol = wrap_protocol(std::move(inner));
    const auto connect_start = Clock::now();
    std::unique_ptr<TracedService> service;
    if (trace != nullptr) {
      service = std::make_unique<TracedService>(
          std::make_unique<acp::InProcessBillboard>(spec.n,
                                                    world.num_objects()),
          trace->commits);
    }
    out.connect_ms = ms_since(connect_start);
    acp::SyncRunConfig config;
    config.max_rounds = spec.max_rounds;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.observer = trace;
    config.engine_threads = spec.engine_threads;
    config.billboard = service.get();
    out.setup_s = seconds_since(setup_start);
    if (options.setup_only) return out;

    const auto run_start = Clock::now();
    out.result = acp::SyncEngine::run(world, population, *protocol, *adversary,
                                      config);
    out.run_s = seconds_since(run_start);
    if (service) out.billboard_bytes = encoded_bytes(service->board());
  } else if (spec.engine == "gossip") {
    auto probe_protocol = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = wrap_adversary(
        reg.adversaries.make(spec.adversary, {spec, *probe_protocol}));
    const auto connect_start = Clock::now();
    std::unique_ptr<TracedService> service;
    if (trace != nullptr) {
      service = std::make_unique<TracedService>(
          std::make_unique<acp::InProcessBillboard>(
              spec.n, world.num_objects(), acp::Billboard::Mode::kReplica),
          trace->commits);
    }
    out.connect_ms = ms_since(connect_start);
    acp::GossipConfig config;
    config.fanout = spec.fanout;
    config.substrate = spec.substrate == "exchange"
                           ? acp::GossipSubstrate::kExchange
                           : acp::GossipSubstrate::kDigest;
    config.pull = spec.pull;
    config.loss_prob = spec.loss_prob;
    config.max_rounds = spec.max_rounds;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.billboard = service.get();
    config.observer = trace;
    if (trace != nullptr) {
      config.on_final_replica = [&out](acp::PlayerId,
                                       const acp::Billboard& replica) {
        out.replica_posts += replica.size();
      };
    }
    const acp::ProtocolFactory factory = [&] {
      return wrap_protocol(reg.protocols.make(spec.protocol, protocol_ctx));
    };
    out.setup_s = seconds_since(setup_start);
    if (options.setup_only) return out;

    const auto run_start = Clock::now();
    out.result = acp::GossipEngine::run(world, population, factory, *adversary,
                                        config);
    out.run_s = seconds_since(run_start);
    if (service) out.billboard_bytes = encoded_bytes(service->board());
  } else if (spec.engine == "async") {
    if (spec.protocol != "collab" || spec.scheduler != "rr") {
      throw std::invalid_argument("async workloads run collab under rr");
    }
    acp::AsyncCollabProtocol protocol;
    auto probe_protocol = reg.protocols.make(spec.protocol, protocol_ctx);
    auto adversary = wrap_adversary(
        reg.adversaries.make(spec.adversary, {spec, *probe_protocol}));
    acp::RoundRobinScheduler scheduler;

    const auto connect_start = Clock::now();
    Daemon daemon(options.daemon_binary, options.socket_path);
    CommitLog rpc_log(false);
    auto service = std::make_unique<TracedService>(
        acp::make_billboard_service(
            acp::BillboardBackendSpec::parse(daemon.backend()),
                                    spec.n, world.num_objects(),
                                    acp::Billboard::Mode::kAuthoritative),
        trace != nullptr ? trace->commits : rpc_log);
    out.connect_ms = ms_since(connect_start);

    acp::AsyncRunConfig config;
    config.max_steps = spec.max_steps;
    config.seed = engine_seed;
    config.arrivals = arrivals;
    config.departures = departures;
    config.observer = trace;
    config.billboard = service.get();
    out.setup_s = seconds_since(setup_start);

    if (!options.setup_only) {
      const auto run_start = Clock::now();
      out.result = acp::AsyncEngine::run(world, population, protocol,
                                         *adversary, scheduler, config);
      out.run_s = seconds_since(run_start);
      if (trace != nullptr) {
        out.rpc_ns = trace->commits.ns;
        out.billboard_bytes = encoded_bytes(service->board());
        out.service =
            replay_service_path(spec.n, world.num_objects(), trace->commits);
      } else {
        out.rpc_ns = std::move(rpc_log.ns);
      }
    }
    service.reset();  // close the connection before the daemon stops
    out.server = daemon.stop();
  } else {
    throw std::invalid_argument("workload engine '" + spec.engine +
                                "' is not wired");
  }
  if (options.setup_only) return out;

  out.live_honest_satisfied = check_live_honest(out.result, departures);
  return out;
}

bool same_result(const acp::RunResult& a, const acp::RunResult& b) {
  if (a.rounds_executed != b.rounds_executed ||
      a.all_honest_satisfied != b.all_honest_satisfied ||
      a.total_posts != b.total_posts || a.players.size() != b.players.size()) {
    return false;
  }
  for (std::size_t p = 0; p < a.players.size(); ++p) {
    const acp::PlayerStats& x = a.players[p];
    const acp::PlayerStats& y = b.players[p];
    if (x.honest != y.honest || x.probes != y.probes ||
        x.cost_paid != y.cost_paid || x.satisfied_round != y.satisfied_round ||
        x.probed_good != y.probed_good) {
      return false;
    }
  }
  return true;
}

ServicePath replay_service_path(std::size_t num_players,
                                std::size_t num_objects, const CommitLog& log) {
  ServicePath path;
  const std::size_t commits = log.batches.size();
  if (commits == 0) return path;
  const auto batch_posts = [&](const CommitLog::Batch& batch) {
    return std::span<const acp::Post>(log.posts.data() + batch.begin,
                                      batch.end - batch.begin);
  };

  // Client encode: each batch into a reused frame buffer.
  std::vector<std::uint8_t> frame;
  std::size_t encoded = 0;
  auto start = Clock::now();
  for (const CommitLog::Batch& batch : log.batches) {
    frame.clear();
    acp::bbwire::encode_commit(frame, batch.round, batch_posts(batch));
    encoded += frame.size();
  }
  path.encode_ns_mean = static_cast<double>(ns_since(start, Clock::now())) /
                        static_cast<double>(commits);

  // Server apply: the same frames into a standalone core, after an open.
  std::vector<std::uint8_t> frames;
  frames.reserve(encoded);
  std::vector<std::size_t> ends;
  ends.reserve(commits);
  for (const CommitLog::Batch& batch : log.batches) {
    acp::bbwire::encode_commit(frames, batch.round, batch_posts(batch));
    ends.push_back(frames.size());
  }
  acp::BillboardServerCore core;
  const std::uint64_t session = core.open_session();
  std::vector<std::uint8_t> reply;
  acp::bbwire::OpenMsg open;
  open.num_players = num_players;
  open.num_objects = num_objects;
  std::vector<std::uint8_t> open_frame;
  acp::bbwire::encode_open(open_frame, open);
  if (!core.on_bytes(session, open_frame, reply)) {
    throw std::runtime_error("replay: server core refused the open");
  }
  std::size_t begin = 0;
  start = Clock::now();
  for (const std::size_t end : ends) {
    reply.clear();
    if (!core.on_bytes(session,
                       std::span<const std::uint8_t>(frames.data() + begin,
                                                     end - begin),
                       reply)) {
      throw std::runtime_error("replay: server core closed the stream");
    }
    begin = end;
  }
  path.server_apply_ns_mean =
      static_cast<double>(ns_since(start, Clock::now())) /
      static_cast<double>(commits);
  if (core.stats().errors != 0 || core.stats().commits != commits) {
    throw std::runtime_error("replay: server core rejected a commit");
  }

  // Client mirror: the batches into a fresh local board.
  acp::Billboard mirror(num_players, num_objects);
  start = Clock::now();
  for (const CommitLog::Batch& batch : log.batches) {
    mirror.commit_round_from(batch.round, batch_posts(batch));
  }
  path.mirror_apply_ns_mean =
      static_cast<double>(ns_since(start, Clock::now())) /
      static_cast<double>(commits);
  return path;
}

}  // namespace perfbench
