// Construction and execution of one scenario trial.
//
// This is the single place that turns a ScenarioSpec into live objects —
// world, population, protocol (via the registry), adversary (via the
// registry), engine — and runs one seeded trial. Every consumer (acpsim,
// the fig/tab benches, the examples, the sharded trial driver) goes
// through here, so a spec means exactly the same run everywhere; the
// scenario-parity test pins that a spec-built run is bit-identical to the
// hand-wired equivalent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/engine/observer.hpp"
#include "acp/engine/run_result.hpp"
#include "acp/rng/rng.hpp"
#include "acp/scenario/spec.hpp"
#include "acp/world/population.hpp"
#include "acp/world/world.hpp"

namespace acp::scenario {

/// Honest-player count for a target fraction: llround(alpha*n) clamped to
/// [0, n]. (Round-half-up — a truncating cast ran alpha=0.7, n=10 at six
/// honest players.)
[[nodiscard]] std::size_t honest_count(double alpha, std::size_t n);

/// World per spec.resolved_world(): "simple", "cost-classes" (geometric
/// cost classes, good objects only from cheapest_good_class up) or
/// "top-beta" (no local testing).
[[nodiscard]] World build_world(const ScenarioSpec& spec, Rng& rng);

/// n players with honest_count(alpha, n) honest at random positions.
[[nodiscard]] Population build_population(const ScenarioSpec& spec, Rng& rng);

/// Staircase arrivals over [0, arrival_window): the i-th honest player
/// (ascending id) joins at floor(i*W/h). Empty when no window configured.
[[nodiscard]] std::vector<Round> build_arrivals(const ScenarioSpec& spec,
                                                const Population& population);

/// The last ceil(depart_frac*h) honest players crash-stop at
/// depart_round. Empty when no departures are configured.
[[nodiscard]] std::vector<Round> build_departures(
    const ScenarioSpec& spec, const Population& population);

/// Run ONE trial of the scenario under `seed`: derive the world and
/// population from Rng(seed), construct protocol and adversary by
/// registry name, and execute on the spec's engine (engine seed is
/// seed ^ 0x2545F491, the acpsim convention). `observer` may be null;
/// it is only honored on the engines that expose observer slots.
/// `on_final_replica` is handed to GossipConfig::on_final_replica on
/// engine "gossip" and ignored elsewhere.
/// Throws std::invalid_argument on unknown names, bad parameters, or
/// unsupported combinations (e.g. adversary "splitvote" on engine
/// "gossip", which has no single protocol instance to observe).
[[nodiscard]] RunResult run_scenario_trial(
    const ScenarioSpec& spec, std::uint64_t seed,
    RunObserver* observer = nullptr,
    const std::function<void(PlayerId, const Billboard&)>& on_final_replica =
        nullptr);

}  // namespace acp::scenario
