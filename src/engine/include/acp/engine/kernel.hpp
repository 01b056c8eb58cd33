// RunKernel — the single simulation loop behind every engine.
//
// The paper describes one execution semantics viewed through different
// schedulers: Theorem 4's synchronous rounds, the §6 asynchronous
// round-robin baseline, and the §1.2 lockstep synchronizer. The kernel
// owns everything those views share — the per-run invariants:
//
//  * seeded RNG stream derivation (EngineStreams: players, adversary,
//    scheduler);
//  * honest-player membership under churn (PlayerRoster: arrivals,
//    fail-stop departures, halts);
//  * stats, observer callbacks and metrics emission (RunAccounting);
//  * adversary post validation and the atomic billboard commit;
//  * the honest step body: probe, cost accounting, local-testability
//    masking, post staging, halt handling, wants_halt_all horizons.
//
// Engines are thin configurations: a *Stepper* adapts the protocol
// interface (synchronous Protocol or AsyncProtocol) and a *SchedulePolicy*
// decides who steps in a slice — every active player per slice for the
// synchronous engine, one scheduler-picked player per slice for the
// asynchronous one. A "slice" is the kernel's commit unit: a round in the
// synchronous engine, a basic step in the asynchronous one.
//
// The honest step is split into three phases so a policy can overlap
// everything per-player across workers and keep only a cheap fold on the
// kernel thread:
//
//  * evaluate(p) -> ProbeEval — choose_probe plus the World probe and
//    local-testability masking. Touches only player p's RNG stream and
//    state that is read-only for the duration of the slice.
//  * stage(p, eval, sink) -> halted? — the order-independent half of the
//    old apply: on_probe_result, per-player accounting slots
//    (RunAccounting::stage_*), the post draft and the halt decision, all
//    accumulated into the caller-owned StageSink. Touches only player p's
//    RNG stream and per-player-indexed protocol/accounting state.
//  * fold(sink) — the order-dependent tail: shared slice totals and the
//    honest post sequence. Always runs on the kernel thread, folding
//    sinks in canonical order.
//
// Sequential policies run stage(p, evaluate(p), sink) per player into one
// sink and fold it once — exactly the historical interleaved order.
// ParallelAllActivePolicy splits the roster into contiguous count-only
// shards (the same determinism recipe as the sharded trial driver),
// lanes of a persistent RoundGang claim shards and run evaluate+stage
// into per-shard sinks, and the kernel thread folds the sinks in shard
// order — which reconstructs roster order, so the RunResult is
// bit-identical to the sequential policy at any thread count *when the
// protocol's parallel_choose_safe() contract holds* (both per-player
// hooks confined to per-player state; see protocol.hpp).
//
// Timing happens at the kernel's seams, behind MetricsRegistry's switch:
// run_kernel splits each slice (the engine's slice timer) into
// engine.kernel.{adversary,players,commit,accounting} on the kernel
// thread, and ParallelAllActivePolicy adds one clock pair per claimed
// shard (engine.kernel.work, wake, imbalance) plus its barrier and merge.
// No clock is ever read per player: a per-player clock pair distorts what
// it measures, so evaluate and stage are not timed apart.
//
// Stepper concept:
//   void initialize(const WorldView&, std::size_t n);
//   Round churn_clock(Round slice);          // clock arrivals/departures run on
//   void on_departure(PlayerId);             // fail-stop notification
//   void begin_slice(Round slice, const Billboard&);
//   void on_active_roster(Round slice, std::span<const PlayerId>, Rng&);
//                                            // all-active policies only
//   std::optional<ObjectId> choose_probe(PlayerId, Round slice,
//                                        const Billboard&, Rng&);
//   StepOutcome on_probe_result(PlayerId, Round slice, ObjectId, double value,
//                               double cost, bool locally_good, Rng&);
//   bool wants_halt_all(Round slice);
//
// SchedulePolicy concept:
//   static constexpr bool kAllActive;        // steps every active player?
//   template <class Evaluate, class Stage, class Fold>
//   void run_slice(PlayerRoster&, Rng& scheduler_rng,
//                  Evaluate&& evaluate,    // evaluate(p) -> ProbeEval
//                  Stage&& stage,          // stage(p, eval, sink) -> halted?
//                  Fold&& fold);           // fold(sink), kernel thread,
//                                          // canonical order
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/billboard/service.hpp"
#include "acp/concurrency/round_gang.hpp"
#include "acp/obs/bandwidth.hpp"
#include "acp/obs/metrics.hpp"
#include "acp/engine/accounting.hpp"
#include "acp/engine/adversary.hpp"
#include "acp/engine/observer.hpp"
#include "acp/engine/protocol.hpp"
#include "acp/engine/roster.hpp"
#include "acp/engine/run_result.hpp"
#include "acp/engine/scheduler.hpp"
#include "acp/engine/streams.hpp"
#include "acp/obs/timer.hpp"
#include "acp/util/contracts.hpp"
#include "acp/world/population.hpp"
#include "acp/world/world.hpp"

namespace acp {

/// Engine-independent per-run parameters plus the engine's observability
/// names (a timer for the slice scope and the two emitted counters).
struct KernelSpec {
  Round max_slices = 0;
  std::uint64_t seed = 1;
  std::span<const Round> arrivals;
  std::span<const Round> departures;
  RunObserver* observer = nullptr;
  const char* slice_timer = nullptr;
  const char* slices_counter = nullptr;
  const char* probes_counter = nullptr;
  /// Engine threads actually driving this run (after the 0 -> hardware
  /// resolution and the parallel_choose_safe fallback): 1 for every
  /// sequential policy. Surfaced to observers via RunContext so traces
  /// and reports record what really ran — NOT part of RunResult, which
  /// stays bit-identical across thread counts.
  std::size_t engine_threads = 1;
  /// Billboard backend for the run. Null (the default) means the kernel
  /// owns a fresh InProcessBillboard — the historical zero-overhead
  /// configuration. A non-null service must be freshly opened (empty
  /// board) with dimensions matching the run; the kernel commits through
  /// it and reads its board() view, so in-process and remote backends
  /// produce bit-identical results.
  BillboardService* billboard = nullptr;
};

/// The read-only half of one player step: the chosen probe (if any) and
/// the World's answer, produced by a policy's evaluate phase and consumed
/// by its staged-apply phase.
struct ProbeEval {
  std::optional<ObjectId> object;  ///< nullopt: the player idles this slice
  double value = 0.0;
  double cost = 0.0;
  bool good = false;          ///< ground truth (for accounting)
  bool locally_good = false;  ///< masked by the goodness model (§2.2)
};

/// Alignment for per-shard staging state. PR 5's parallel policy wrote
/// adjacent ProbeEval slots of one shared vector from different workers
/// at every shard boundary; padding each shard's state to the destructive
/// interference size keeps concurrent writers on disjoint cache lines
/// (measured on the PR 5 layout: boundary-slot ping-pong was one of the
/// reasons t8 ran no faster than t1 — see docs/architecture.md,
/// "Where the 8-thread time goes").
#if defined(__cpp_lib_hardware_interference_size)
#if defined(__GNUC__) && !defined(__clang__)
// GCC flags every use of the constant as ABI-sensitive (-Winterference-
// size); the value is only a padding hint here, never part of an ABI.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
inline constexpr std::size_t kStageSinkAlign =
    std::hardware_destructive_interference_size;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
inline constexpr std::size_t kStageSinkAlign = 64;
#endif

/// Per-shard staging buffer for the staged half of apply. Exactly one
/// lane writes a given sink per slice (shards are claimed atomically);
/// the kernel thread folds sinks in canonical shard order afterwards.
/// Buffers keep their capacity across slices.
struct alignas(kStageSinkAlign) StageSink {
  std::vector<Post> posts;          ///< honest post drafts, shard order
  std::vector<PlayerId> survivors;  ///< non-halted players, shard order
  std::uint64_t probes = 0;
  std::uint64_t satisfied = 0;

  void reset() noexcept {
    posts.clear();
    survivors.clear();
    probes = 0;
    satisfied = 0;
  }
};

namespace kernel_detail {

[[nodiscard]] inline std::uint64_t ns_between(
    std::chrono::steady_clock::time_point from,
    std::chrono::steady_clock::time_point to) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace kernel_detail

/// Steps every active player once per slice — the synchronous round.
class AllActivePolicy {
 public:
  static constexpr bool kAllActive = true;

  template <class Evaluate, class Stage, class Fold>
  void run_slice(PlayerRoster& roster, Rng& /*scheduler_rng*/,
                 Evaluate&& evaluate, Stage&& stage, Fold&& fold) {
    still_active_.clear();
    still_active_.reserve(roster.active().size());
    sink_.reset();
    for (PlayerId p : roster.active()) {
      if (!stage(p, evaluate(p), sink_)) {
        still_active_.push_back(p);  // survivors keep order
      }
    }
    roster.swap_active(still_active_);
    fold(sink_);
  }

 private:
  StageSink sink_;
  std::vector<PlayerId> still_active_;
};

/// The synchronous round fanned out over a persistent RoundGang: the
/// active roster splits into contiguous shards (by count only — the same
/// determinism recipe as the sharded trial driver), gang lanes claim
/// shards from an atomic cursor and run evaluate + staged apply into the
/// shard's StageSink, and the kernel thread folds the sinks in shard
/// order after the round barrier. Requires the stepper's per-player hooks
/// to be concurrency safe across players (Protocol::parallel_choose_safe);
/// engines fall back to AllActivePolicy when they are not.
class ParallelAllActivePolicy {
 public:
  static constexpr bool kAllActive = true;

  explicit ParallelAllActivePolicy(RoundGang& gang)
      : gang_(&gang),
        work_(obs::MetricsRegistry::global().timer("engine.kernel.work")),
        wake_(obs::MetricsRegistry::global().timer("engine.kernel.wake")),
        barrier_(
            obs::MetricsRegistry::global().timer("engine.kernel.barrier")),
        merge_(obs::MetricsRegistry::global().timer("engine.kernel.merge")),
        imbalance_(obs::MetricsRegistry::global().histogram(
            "engine.kernel.imbalance", 1.0, 8.0, 28)) {}

  template <class Evaluate, class Stage, class Fold>
  void run_slice(PlayerRoster& roster, Rng& /*scheduler_rng*/,
                 Evaluate&& evaluate, Stage&& stage, Fold&& fold) {
    using Clock = std::chrono::steady_clock;
    const std::span<const PlayerId> active = roster.active();
    const std::size_t count = active.size();
    still_active_.clear();
    still_active_.reserve(count);
    if (count == 0) {
      roster.swap_active(still_active_);
      return;
    }

    // Oversubscribe shards over lanes: idle lanes (including the leader,
    // which runs lane 0 inline instead of parking) claim work from the
    // shared cursor, so the barrier waits on at most one shard-sized
    // tail per lane rather than a static split's slowest straggler.
    // Which lane runs a shard never matters for results: a shard's sink
    // depends only on the shard's players, and the fold order is fixed.
    const std::size_t shards = std::min(count, gang_->lanes() * kShardsPerLane);

    const bool timed = obs::MetricsRegistry::enabled();
    // The kernel thread's attribution sink, handed into the lanes so
    // reads metered inside evaluate()/stage() land in this run's
    // per-player slots. Null when bandwidth metering is off.
    obs::BandwidthMeter::Sink* const io_sink =
        obs::BandwidthMeter::current_sink();

    if (sinks_.size() < shards) sinks_.resize(shards);
    errors_.assign(shards, nullptr);
    shard_ns_.assign(timed ? shards : 0, 0);
    next_shard_.store(0, std::memory_order_relaxed);

    const auto released = timed ? Clock::now() : Clock::time_point{};

    auto work = [&](std::size_t /*lane*/) {
      const obs::BandwidthMeter::SinkScope io_scope(io_sink);
      bool first_claim = true;
      for (;;) {
        const std::size_t s =
            next_shard_.fetch_add(1, std::memory_order_relaxed);
        if (s >= shards) return;
        StageSink& sink = sinks_[s];
        sink.reset();
        const std::size_t begin = s * count / shards;
        const std::size_t end = (s + 1) * count / shards;
        const auto started = timed ? Clock::now() : Clock::time_point{};
        if (timed && first_claim) {
          wake_.record(kernel_detail::ns_between(released, started));
        }
        first_claim = false;
        try {
          for (std::size_t i = begin; i < end; ++i) {
            const PlayerId p = active[i];
            if (!stage(p, evaluate(p), sink)) sink.survivors.push_back(p);
          }
        } catch (...) {
          errors_[s] = std::current_exception();  // gang jobs must not throw
        }
        // Single writer (the claiming lane); read on the kernel thread
        // only after the round barrier.
        if (timed) {
          shard_ns_[s] = kernel_detail::ns_between(started, Clock::now());
        }
      }
    };
    using Work = decltype(work);

    gang_->begin_round(&work, [](void* ctx, std::size_t lane) {
      (*static_cast<Work*>(ctx))(lane);
    });
    work(0);  // the leader is lane 0
    {
      const obs::ScopedTimer timed_barrier(barrier_);
      gang_->finish_round();
    }

    for (const std::exception_ptr& error : errors_) {
      if (error) std::rethrow_exception(error);
    }

    // Canonical-order merge: folding sinks in shard order reconstructs
    // roster order (shards are contiguous count-only splits), so shared
    // totals, the honest post sequence and the survivor list come out
    // bit-identical to the sequential policy at any thread count.
    {
      const obs::ScopedTimer timed_merge(merge_);
      for (std::size_t s = 0; s < shards; ++s) {
        fold(sinks_[s]);
        still_active_.insert(still_active_.end(),
                             sinks_[s].survivors.begin(),
                             sinks_[s].survivors.end());
      }
      roster.swap_active(still_active_);
    }
    if (timed) record_shard_spans();
  }

 private:
  /// Claimable shards per lane. 4 keeps the barrier tail at ~1/4 of a
  /// static split's while the per-shard claim cost (one uncontended
  /// fetch_add) stays invisible next to thousands of player steps.
  static constexpr std::size_t kShardsPerLane = 4;

  /// Lane work summed over shards, and the round's slowest/fastest shard
  /// ratio — the quantity the barrier waits on.
  void record_shard_spans() {
    std::uint64_t slowest = 0;
    std::uint64_t fastest = UINT64_MAX;
    for (const std::uint64_t ns : shard_ns_) {
      work_.record(ns);
      slowest = std::max(slowest, ns);
      fastest = std::min(fastest, ns);
    }
    if (shard_ns_.size() >= 2 && fastest > 0) {
      imbalance_.observe(static_cast<double>(slowest) /
                         static_cast<double>(fastest));
    }
  }

  RoundGang* gang_;
  obs::TimerStat& work_;
  obs::TimerStat& wake_;
  obs::TimerStat& barrier_;
  obs::TimerStat& merge_;
  obs::HistogramMetric& imbalance_;
  std::vector<StageSink> sinks_;
  std::vector<std::exception_ptr> errors_;
  /// Per-shard evaluate+stage span of this round; filled only while the
  /// registry is enabled.
  std::vector<std::uint64_t> shard_ns_;
  std::vector<PlayerId> still_active_;
  /// Own cache line: every lane hammers this cursor while the leader's
  /// other members stay read-mostly.
  alignas(kStageSinkAlign) std::atomic<std::size_t> next_shard_{0};
};

/// One scheduler-picked player per slice — the asynchronous basic step.
class OneScheduledPolicy {
 public:
  static constexpr bool kAllActive = false;

  explicit OneScheduledPolicy(Scheduler& scheduler) : scheduler_(&scheduler) {}

  template <class Evaluate, class Stage, class Fold>
  void run_slice(PlayerRoster& roster, Rng& scheduler_rng,
                 Evaluate&& evaluate, Stage&& stage, Fold&& fold) {
    // All current players may have halted while arrivals are still
    // pending: time passes (the adversary already posted) but nobody
    // moves.
    if (roster.active().empty()) return;
    const PlayerId p = scheduler_->next(roster.active(), scheduler_rng);
    ACP_ASSERT(roster.is_active(p));
    sink_.reset();
    const bool halted = stage(p, evaluate(p), sink_);
    fold(sink_);
    if (halted) roster.remove(p);
  }

 private:
  Scheduler* scheduler_;
  StageSink sink_;
};

namespace kernel_detail {

/// Billboard guarantees on fabricated posts: the adversary speaks only
/// for dishonest players and cannot backdate.
inline void validate_adversary_posts(const Population& population,
                                     const std::vector<Post>& posts,
                                     Round slice) {
  for (const Post& post : posts) {
    ACP_EXPECTS(!population.is_honest(post.author));
    ACP_EXPECTS(post.round == slice);
  }
}

}  // namespace kernel_detail

template <class Stepper, class SchedulePolicy>
RunResult run_kernel(const World& world, const Population& population,
                     Adversary& adversary, Stepper&& stepper,
                     SchedulePolicy&& policy, const KernelSpec& spec) {
  ACP_EXPECTS(spec.max_slices > 0);

  const std::size_t n = population.num_players();
  // The slice loop reads the board through a stable local view and
  // commits through the service, so a remote backend slots in without
  // touching any per-slice code (see BillboardService's visibility
  // contract).
  std::optional<InProcessBillboard> local_board;
  BillboardService* const board_service = [&]() -> BillboardService* {
    if (spec.billboard != nullptr) return spec.billboard;
    local_board.emplace(n, world.num_objects());
    return &*local_board;
  }();
  ACP_EXPECTS(board_service->num_players() == n);
  ACP_EXPECTS(board_service->num_objects() == world.num_objects());
  // A reused board would leak posts from another run into this one's
  // visibility window.
  ACP_EXPECTS(board_service->size() == 0);
  const Billboard& billboard = board_service->board();
  const WorldView world_view(world);

  stepper.initialize(world_view, n);
  adversary.initialize(world, population);

  EngineStreams streams(spec.seed, n);
  PlayerRoster roster(population, spec.arrivals, spec.departures);
  RunAccounting accounting(population, world.num_objects(), spec.seed,
                           spec.observer, spec.slices_counter,
                           spec.probes_counter, spec.engine_threads);

  // Per-run, per-player bandwidth attribution (no-op when metering is
  // disabled). Folded into the global meter when the run finishes.
  const obs::BandwidthMeter::RunScope io_run(n);

  // The slice timer and its parts on the kernel thread. The parts plus a
  // leftover (churn, begin_slice, on_active_roster) add up to the slice.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::TimerStat& slice_timer = registry.timer(spec.slice_timer);
  obs::TimerStat& adversary_timer = registry.timer("engine.kernel.adversary");
  obs::TimerStat& players_timer = registry.timer("engine.kernel.players");
  obs::TimerStat& commit_timer = registry.timer("engine.kernel.commit");
  obs::TimerStat& accounting_timer =
      registry.timer("engine.kernel.accounting");

  std::vector<Post> slice_posts;

  Round slice = 0;
  for (; slice < spec.max_slices && !roster.done(); ++slice) {
    const obs::ScopedTimer timed(slice_timer);

    // Churn runs on the stepper's clock (round == slice for sync, step
    // stamp for async, virtual round under lockstep). Iterate to a
    // fixpoint: under lockstep, a departure can close the virtual round
    // and advance the clock, making further churn due within this slice.
    Round now = stepper.churn_clock(slice);
    for (;;) {
      roster.admit_arrivals(now);
      for (PlayerId p : roster.apply_departures(now)) stepper.on_departure(p);
      const Round after = stepper.churn_clock(slice);
      if (after == now) break;
      now = after;
    }

    stepper.begin_slice(slice, billboard);
    if constexpr (std::remove_cvref_t<SchedulePolicy>::kAllActive) {
      // All-active policies reveal the round's roster before any
      // evaluation — the hook protocols use to pre-partition shared
      // per-round choices so their per-player hooks become parallel-safe
      // (see Protocol::on_active_roster). The scheduler stream is unused
      // by these policies otherwise, so consuming it here is
      // deterministic at any thread count.
      stepper.on_active_roster(slice, roster.active(), streams.scheduler);
    }

    {
      const obs::ScopedTimer timed_adversary(adversary_timer);
      slice_posts.clear();
      adversary.plan_round(
          AdversaryContext{world, population, slice, billboard}, slice_posts,
          streams.adversary);
      kernel_detail::validate_adversary_posts(population, slice_posts, slice);
    }

    std::size_t probes_this_slice = 0;

    // Phase 1 — the read-only half of the step: may run concurrently
    // across players under ParallelAllActivePolicy (distinct RNG streams,
    // immutable World, slice-frozen billboard and protocol tables).
    const auto evaluate = [&](PlayerId p) -> ProbeEval {
      ProbeEval eval;
      // Billboard/ledger reads inside choose_probe are this player's
      // traffic (one relaxed load when metering is off).
      const obs::BandwidthMeter::PlayerScope io_player(p);
      const auto choice =
          stepper.choose_probe(p, slice, billboard, streams.player(p));
      if (!choice.has_value()) {
        return eval;  // idle step: no probe, no cost
      }
      const ObjectId object = *choice;
      const ProbeOutcome outcome = world.probe(object);
      eval.object = object;
      eval.value = outcome.value;
      eval.cost = outcome.cost;
      eval.good = world.is_good(object);
      // Local testability is a property of the object model (§2.2): under
      // TopBeta a prober cannot tell good from bad, so the flag is masked.
      eval.locally_good = world.model() == GoodnessModel::kLocalTesting
                              ? outcome.locally_good
                              : false;
      return eval;
    };

    // Phase 2 — the staged half of apply: order-independent per-player
    // work accumulated into the caller's sink. Under the parallel policy
    // this runs on gang lanes, concurrently across shards; everything it
    // touches is indexed by p (accounting slots, the stepper's per-player
    // state under the parallel_choose_safe contract) or shard-local (the
    // sink).
    const auto stage = [&](PlayerId p, const ProbeEval& eval,
                           StageSink& sink) -> bool {
      if (!eval.object.has_value()) return false;
      ++sink.probes;
      accounting.stage_probe(p, eval.cost, eval.good);
      const obs::BandwidthMeter::PlayerScope io_player(p);
      const StepOutcome step =
          stepper.on_probe_result(p, slice, *eval.object, eval.value,
                                  eval.cost, eval.locally_good,
                                  streams.player(p));
      if (step.post.has_value()) {
        sink.posts.push_back(Post{p, slice, step.post->object,
                                  step.post->reported_value,
                                  step.post->positive});
      }
      if (step.halt) {
        accounting.stage_satisfied(p, slice);
        ++sink.satisfied;
      }
      return step.halt;
    };

    // Phase 3 — the order-dependent tail, folded on the kernel thread in
    // canonical order: shared totals and the honest post sequence
    // (appended after the adversary's posts, preserving the historical
    // commit order).
    const auto fold = [&](const StageSink& sink) {
      probes_this_slice += sink.probes;
      accounting.fold_satisfied(sink.satisfied);
      slice_posts.insert(slice_posts.end(), sink.posts.begin(),
                         sink.posts.end());
    };

    {
      const obs::ScopedTimer timed_players(players_timer);
      policy.run_slice(roster, streams.scheduler, evaluate, stage, fold);
    }

    // Commit from the staging buffer and keep its capacity: `slice_posts`
    // is cleared (not replaced) at the top of the loop, so no engine
    // reallocates a post vector per slice.
    {
      const obs::ScopedTimer timed_commit(commit_timer);
      board_service->commit_round_from(slice, slice_posts);
    }

    const obs::ScopedTimer timed_accounting(accounting_timer);
    if (stepper.wants_halt_all(slice)) {
      for (PlayerId p : roster.active()) accounting.record_satisfied(p, slice);
      roster.halt_all();
    }

    accounting.end_slice(slice, billboard, roster.active().size(),
                         probes_this_slice);
  }

  return accounting.finish(slice, roster.done(), billboard);
}

}  // namespace acp
