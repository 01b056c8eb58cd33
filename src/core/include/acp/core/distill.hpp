// Algorithm DISTILL (Figure 1) — the paper's main contribution.
//
// The algorithm repeatedly invokes subroutine ATTEMPT:
//
//   Prepare initial candidate set
//   1.1  for k1/(alpha beta n) times: PROBE&SEEKADVICE({1..m})
//   1.2  S = objects with at least one vote
//   1.3  for k2/alpha times:          PROBE&SEEKADVICE(S)
//   1.4  C0 = objects with >= k2/4 votes at Step 1.3
//   Distill candidate set
//   2    while c_t > 0:
//   2.1    for 1/alpha times:         PROBE&SEEKADVICE(C_t)
//   2.2    C_{t+1} = { i in C_t | l_t(i) > n/(4 c_t) }
//
// PROBE&SEEKADVICE(S): probe a random object of S, then probe the object a
// random player votes for (if it has a vote) — two rounds, one probe each.
// Whenever a good object is probed the player posts the result (its *vote*)
// and halts.
//
// All honest players are symmetric and compute the phase schedule from the
// shared billboard, so one DistillProtocol instance drives them all: the
// candidate sets S and C_t, the vote counts l_t(i), and the phase
// boundaries are identical across players; only the random probes differ.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "acp/billboard/vote_ledger.hpp"
#include "acp/core/distill_params.hpp"
#include "acp/engine/protocol.hpp"

namespace acp {

class DistillProtocol final : public Protocol {
 public:
  enum class Phase { kStep11, kStep13, kStep2 };

  explicit DistillProtocol(DistillParams params);

  void initialize(const WorldView& world, std::size_t num_players) override;
  void on_round_begin(Round round, const Billboard& billboard) override;
  [[nodiscard]] std::optional<ObjectId> choose_probe(PlayerId player,
                                                     Round round,
                                                     Rng& rng) override;
  StepOutcome on_probe_result(PlayerId player, Round round, ObjectId object,
                              double value, double cost, bool locally_good,
                              Rng& rng) override;
  [[nodiscard]] bool wants_halt_all(Round round) const override;
  /// choose_probe reads only the round-frozen shared tables (candidate
  /// set, ledger, phase window) and per-player state that no other
  /// player's on_probe_result touches (its own trust row), so players may
  /// evaluate concurrently.
  [[nodiscard]] bool parallel_choose_safe() const override { return true; }

  // -- Introspection (tests, benches, and the wrapper protocols) ----------
  [[nodiscard]] const DistillParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  /// Current candidate set (S during Step 1.3, C_t during Step 2). During
  /// Step 1.1 the candidate set is the whole universe and not materialized.
  [[nodiscard]] const std::vector<ObjectId>& candidates() const noexcept {
    return candidates_;
  }
  /// Completed ATTEMPT invocations (failed attempts that restarted).
  [[nodiscard]] std::size_t attempts_started() const noexcept {
    return attempts_started_;
  }
  /// Iteration index t within the current Step 2.
  [[nodiscard]] std::size_t iteration() const noexcept { return iteration_; }
  [[nodiscard]] const VoteLedger& ledger() const;
  /// First round of the current phase window (counting scope of l_t).
  [[nodiscard]] Round phase_window_start() const noexcept {
    return phase_start_;
  }
  /// First round after the current phase window.
  [[nodiscard]] Round phase_window_end() const noexcept { return phase_end_; }

  /// Trust-weighted advice state (§6 exploration): the per-player trust
  /// tables, exportable so repeated searches can carry learned trust
  /// across runs (Byzantine identities persist between searches).
  [[nodiscard]] const std::vector<std::vector<int>>& trust_table() const {
    return trust_;
  }
  /// Seed the trust tables of the NEXT initialize() call (no-op unless
  /// trust_weighted_advice is on and the dimensions match).
  void import_trust_table(std::vector<std::vector<int>> table) {
    imported_trust_ = std::move(table);
  }

  // Phase lengths in rounds (after initialize()).
  [[nodiscard]] Round rounds_per_invocation() const noexcept;
  [[nodiscard]] Round step11_rounds() const;
  [[nodiscard]] Round step13_rounds() const;
  [[nodiscard]] Round step2_iteration_rounds() const;

 private:
  void enter_step11(Round round);
  /// Veto rule of the §6 variant: drop candidates whose negative votes in
  /// [begin, end) exceed veto_fraction * n. No-op when veto is disabled.
  void apply_veto(std::vector<ObjectId>& objects, Round begin, Round end);
  /// Keep only universe members (no-op without a universe restriction).
  [[nodiscard]] std::vector<ObjectId> filter_universe(
      std::vector<ObjectId> objects) const;
  [[nodiscard]] bool in_universe(ObjectId object) const;

  DistillParams params_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  double beta_ = 0.0;

  std::optional<VoteLedger> ledger_;
  /// Slander ledger — only when params_.veto_fraction > 0 (§6 variant).
  std::optional<VoteLedger> negative_ledger_;

  bool started_ = false;
  Phase phase_ = Phase::kStep11;
  Round phase_start_ = 0;
  Round phase_end_ = 0;
  std::vector<ObjectId> candidates_;
  bool probe_whole_universe_ = false;
  std::size_t iteration_ = 0;
  std::size_t attempts_started_ = 0;

  /// Universe membership mask (only when params_.universe is set).
  std::vector<bool> universe_mask_;

  /// Per-player count of positive posts already made (vote budget f).
  std::vector<std::uint32_t> votes_cast_;

  /// Trust-weighted advice (§6 exploration): per player, local trust in
  /// every other player, settled against the public voters of every
  /// personally probed object. Allocated only when
  /// params_.trust_weighted_advice is set.
  std::vector<std::vector<int>> trust_;
  std::vector<std::vector<int>> imported_trust_;

  /// Scratch for the batched window queries of the phase transitions
  /// (Step 2.2 survivor filter, veto rule). Only touched from
  /// on_round_begin — never from the concurrency-safe choose_probe.
  std::vector<Count> batch_counts_;
};

}  // namespace acp
