// Timing decorators for the traced run.
//
// Each decorator wraps one public seam of the libraries and forwards every
// call unchanged, so a wrapped run gives the same RunResult as an
// unwrapped one (the self-test checks this for every workload):
//
//   TracedProtocol   Protocol          (per-player hooks, per thread lane)
//   TracedAdversary  Adversary         (plan_round)
//   TracedService    BillboardService  (commit round trips, batches)
//   TrialTrace       RunObserver       (round boundaries, spans)
//
// The per-player hooks run about a million times a trial, too often for a
// span each, so they are folded into per-round counts and totals. Rounds
// and commits are kept as spans in memory and written out at exit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "acp/billboard/service.hpp"
#include "acp/engine/adversary.hpp"
#include "acp/engine/observer.hpp"
#include "acp/engine/protocol.hpp"
#include "stats.hpp"

namespace perfbench {

/// Per-thread totals of the per-player protocol hooks. One instance is
/// shared by every protocol decorator of a trial (the gossip engine builds
/// one protocol per node, all driven from one thread).
class CoreStats {
 public:
  static constexpr std::size_t kMaxLanes = 16;

  struct alignas(64) Lane {
    std::uint64_t steps = 0;
    std::uint64_t step_ns = 0;
    std::uint64_t round_ns = 0;  ///< hook time in the open round
    std::uint64_t busy_ns = 0;   ///< hook time in closed rounds
  };

  /// What the hooks did in one round, folded over lanes.
  struct Round {
    std::uint64_t steps = 0;
    std::uint64_t step_ns = 0;
    std::uint64_t critical_ns = 0;  ///< busiest lane's hook time
    std::uint64_t wait_ns = 0;      ///< mean lane gap to the busiest lane
  };

  CoreStats();

  /// The calling thread's lane, claimed on its first call.
  [[nodiscard]] Lane& lane();

  void add_round_begin(std::uint64_t ns) noexcept {
    round_begin_ns += ns;
    ++round_begin_calls;
  }

  /// Fold the lanes' open-round times into critical and wait time (steps
  /// are left to the caller). Call on the engine thread after the round's
  /// barrier, when no hook is running.
  Round close_round();

  [[nodiscard]] std::size_t lanes_used() const noexcept {
    return lanes_used_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Lane& lane_at(std::size_t i) const { return lanes_[i]; }

  std::uint64_t round_begin_ns = 0;
  std::uint64_t round_begin_calls = 0;

 private:
  std::uint64_t id_;
  std::atomic<std::size_t> lanes_used_{0};
  std::array<Lane, kMaxLanes> lanes_{};
};

/// Commit round trips through the service seam: latency per commit, and
/// (when asked) the committed batches for replay through the wire codec.
struct CommitLog {
  explicit CommitLog(bool keep_batches_) : keep_batches(keep_batches_) {}

  struct Batch {
    acp::Round round = 0;
    std::size_t begin = 0;  ///< into posts
    std::size_t end = 0;
  };

  bool keep_batches;
  std::vector<double> ns;              ///< per commit
  std::vector<std::int64_t> start_ns;  ///< per commit, from the trace epoch
  Clock::time_point epoch = Clock::now();
  std::uint64_t posts_committed = 0;
  std::vector<Batch> batches;
  std::vector<acp::Post> posts;
};

class TracedProtocol final : public acp::Protocol {
 public:
  TracedProtocol(std::unique_ptr<acp::Protocol> inner, CoreStats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  void initialize(const acp::WorldView& world,
                  std::size_t num_players) override {
    inner_->initialize(world, num_players);
  }
  void on_round_begin(acp::Round round,
                      const acp::Billboard& billboard) override;
  void on_active_roster(acp::Round round, std::span<const acp::PlayerId> active,
                        acp::Rng& rng) override {
    inner_->on_active_roster(round, active, rng);
  }
  [[nodiscard]] std::optional<acp::ObjectId> choose_probe(
      acp::PlayerId player, acp::Round round, acp::Rng& rng) override;
  acp::StepOutcome on_probe_result(acp::PlayerId player, acp::Round round,
                                   acp::ObjectId object, double value,
                                   double cost, bool locally_good,
                                   acp::Rng& rng) override;
  [[nodiscard]] bool wants_halt_all(acp::Round round) const override {
    return inner_->wants_halt_all(round);
  }
  /// Forwarded: without it the engine silently falls back to the
  /// sequential policy.
  [[nodiscard]] bool parallel_choose_safe() const override {
    return inner_->parallel_choose_safe();
  }

 private:
  std::unique_ptr<acp::Protocol> inner_;
  CoreStats* stats_;
};

struct AdversaryStats {
  std::uint64_t plan_ns = 0;
  std::uint64_t posts = 0;
};

class TracedAdversary final : public acp::Adversary {
 public:
  TracedAdversary(std::unique_ptr<acp::Adversary> inner, AdversaryStats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  void initialize(const acp::World& world,
                  const acp::Population& population) override {
    inner_->initialize(world, population);
  }
  void plan_round(const acp::AdversaryContext& ctx, std::vector<acp::Post>& out,
                  acp::Rng& rng) override;

 private:
  std::unique_ptr<acp::Adversary> inner_;
  AdversaryStats* stats_;
};

class TracedService final : public acp::BillboardService {
 public:
  TracedService(std::unique_ptr<acp::BillboardService> inner, CommitLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  void commit_round(acp::Round round, std::vector<acp::Post> posts) override;
  void commit_round_from(acp::Round round,
                         std::span<const acp::Post> posts) override;
  void reserve(std::size_t expected_posts) override {
    inner_->reserve(expected_posts);
  }
  [[nodiscard]] const acp::Billboard& board() const noexcept override {
    return inner_->board();
  }
  [[nodiscard]] acp::Count votes_in_window(acp::ObjectId object,
                                           acp::Round begin,
                                           acp::Round end) override {
    return inner_->votes_in_window(object, begin, end);
  }
  void votes_in_window_batch(std::span<const acp::ObjectId> objects,
                             acp::Round begin, acp::Round end,
                             std::vector<acp::Count>& out) override {
    inner_->votes_in_window_batch(objects, begin, end, out);
  }
  [[nodiscard]] std::vector<acp::Post> snapshot() override {
    return inner_->snapshot();
  }
  [[nodiscard]] std::string backend_name() const override {
    return inner_->backend_name();
  }

 private:
  std::unique_ptr<acp::BillboardService> inner_;
  CommitLog* log_;
};

/// The traced run's observer: closes each round's hook totals and keeps a
/// span per round (per basic step on the asynchronous engine).
class TrialTrace final : public acp::RunObserver {
 public:
  struct RoundSpan {
    std::int64_t start_ns = 0;  ///< from the trace epoch
    std::int64_t end_ns = 0;
    CoreStats::Round core;
    std::uint64_t round_begin_ns = 0;
    std::uint64_t adversary_ns = 0;
    std::uint64_t commit_ns = 0;
  };

  /// `keep_batches`: copy every committed batch for the service replay.
  explicit TrialTrace(bool keep_batches) : commits(keep_batches) {}

  void on_run_begin(const acp::RunContext& context) override;
  void on_round_end(acp::Round round, const acp::Billboard& billboard,
                    std::size_t active_honest, std::size_t satisfied_honest,
                    std::size_t probes_this_round) override;

  /// One JSON object per line: the run, each round (with its folded hook
  /// totals) and each commit round trip, parented by time containment.
  void write_spans(std::ostream& os) const;

  CoreStats core;
  AdversaryStats adversary;
  CommitLog commits;
  std::vector<RoundSpan> rounds;
  std::size_t final_board_size = 0;  ///< the observer's billboard at the end

 private:
  std::int64_t run_begin_ns_ = 0;
  std::int64_t last_end_ns_ = 0;
  std::uint64_t seen_steps_ = 0;
  std::uint64_t seen_step_ns_ = 0;
  std::uint64_t seen_round_begin_ns_ = 0;
  std::uint64_t seen_adversary_ns_ = 0;
  std::size_t seen_commits_ = 0;
};

}  // namespace perfbench
