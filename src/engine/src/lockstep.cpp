#include "acp/engine/lockstep.hpp"

#include "acp/util/contracts.hpp"

namespace acp {

LockstepAdapter::LockstepAdapter(Protocol& inner,
                                 std::size_t expected_participants)
    : inner_(&inner), expected_participants_(expected_participants) {
  ACP_EXPECTS(expected_participants_ >= 1);
}

void LockstepAdapter::set_participants(const Population& population,
                                       std::span<const Round> arrivals) {
  const std::size_t n = population.num_players();
  ACP_EXPECTS(arrivals.empty() || arrivals.size() == n);
  ACP_EXPECTS(population.num_honest() == expected_participants_);
  declared_participant_.assign(n, false);
  for (std::size_t p = 0; p < n; ++p) {
    declared_participant_[p] = population.is_honest(PlayerId{p});
  }
  declared_arrival_.assign(arrivals.begin(), arrivals.end());
  informed_ = true;
}

void LockstepAdapter::initialize(const WorldView& world,
                                 std::size_t num_players) {
  n_ = num_players;
  inner_->initialize(world, num_players);
  virtual_bb_.emplace(num_players, world.num_objects());
  staged_.clear();
  vround_ = 0;
  round_open_ = false;
  ACP_EXPECTS(expected_participants_ <= n_);
  halted_.assign(n_, false);
  departed_.assign(n_, false);
  foreign_posted_.assign(n_, false);
  arrival_.assign(n_, 0);
  halt_all_ = false;
  if (informed_) {
    ACP_EXPECTS(declared_participant_.size() == n_);
    participant_ = declared_participant_;
    if (!declared_arrival_.empty()) arrival_ = declared_arrival_;
    // Membership is known upfront; nothing is discovered by scheduling.
    seen_participants_ = expected_participants_;
    local_round_ = arrival_;
  } else {
    seen_participants_ = 0;
    participant_.assign(n_, false);
    local_round_.assign(n_, 0);
  }
  real_cursor_ = 0;
  rounds_counter_ = nullptr;
  halted_count_ = 0;
  probes_in_round_ = 0;
}

const Billboard& LockstepAdapter::virtual_billboard() const {
  ACP_EXPECTS(virtual_bb_.has_value());
  return *virtual_bb_;
}

bool LockstepAdapter::live_at(std::size_t p, Round r) const {
  if (!participant_[p] || halted_[p] || departed_[p]) return false;
  return !informed_ || arrival_[p] <= r;
}

std::size_t LockstepAdapter::live_count() const {
  std::size_t count = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    if (live_at(p, vround_)) ++count;
  }
  return count;
}

void LockstepAdapter::ingest_real(const Billboard& real) {
  const PostRange posts = real.posts();
  posts.for_each(real_cursor_, posts.size(), [this](const Post& post) {
    const std::size_t author = post.author.value();
    if (participant_[author]) return;  // our own re-published sync posts
    // A non-participant is a player the async scheduler never ran —
    // dishonest. Re-stamp its post into the current virtual round, one
    // per author per round (billboard contract).
    if (foreign_posted_[author]) return;
    foreign_posted_[author] = true;
    staged_.push_back(Post{post.author, vround_, post.object,
                           post.reported_value, post.positive});
  });
  real_cursor_ = posts.size();
}

void LockstepAdapter::complete_step(PlayerId player) {
  ACP_ASSERT(local_round_[player.value()] == vround_);
  ++local_round_[player.value()];
  close_round_if_done();
}

void LockstepAdapter::close_round_if_done() {
  for (;;) {
    // A round cannot close while some participant has not even been
    // scheduled for the first time (lazy-discovery mode only).
    if (!informed_ && seen_participants_ < expected_participants_) return;
    for (std::size_t p = 0; p < n_; ++p) {
      if (participant_[p] && !halted_[p] && !departed_[p] &&
          local_round_[p] == vround_) {
        return;  // someone still owes this round a step
      }
    }
    // Mirror the synchronous round order: begin, commit, halt-all check,
    // observer. If nobody stepped this round (auto-closed while waiting
    // for an arrival), the inner protocol still sees on_round_begin so its
    // billboard-driven schedule matches a native synchronous run.
    if (!round_open_) inner_->on_round_begin(vround_, *virtual_bb_);
    // Commit from the staging buffer and keep its capacity for the next
    // virtual round (clear() does not release it).
    virtual_bb_->commit_round_from(vround_, staged_);
    staged_.clear();
    if (!halt_all_ && inner_->wants_halt_all(vround_)) {
      // The synchronous engine would halt every remaining active player
      // after this round's commit; mark them satisfied here so observer
      // counts match, and let wants_halt_all() tell the engine.
      halt_all_ = true;
      for (std::size_t p = 0; p < n_; ++p) {
        if (live_at(p, vround_)) {
          halted_[p] = true;
          ++halted_count_;
        }
      }
    }
    if (observer_ != nullptr) {
      // The virtual billboard now includes this round's posts — exactly
      // what a SyncEngine observer sees after the round's commit.
      observer_->on_round_end(vround_, *virtual_bb_, live_count(),
                              halted_count_, probes_in_round_);
    }
    if (obs::MetricsRegistry::enabled()) {
      if (rounds_counter_ == nullptr) {
        rounds_counter_ =
            &obs::MetricsRegistry::global().counter("engine.lockstep.rounds");
      }
      rounds_counter_->add(1);
    }
    probes_in_round_ = 0;
    ++vround_;
    round_open_ = false;
    foreign_posted_.assign(n_, false);
    if (halt_all_ || !informed_) return;
    // The new round may have nobody in it (everyone present halted or
    // departed) while arrivals are still pending: close it empty so the
    // virtual clock reaches the next arrival, exactly as the synchronous
    // engine's empty rounds pass by.
    bool anyone_here = false;
    bool future_arrival = false;
    for (std::size_t p = 0; p < n_; ++p) {
      if (!participant_[p] || halted_[p] || departed_[p]) continue;
      if (arrival_[p] <= vround_) {
        anyone_here = true;
      } else {
        future_arrival = true;
      }
    }
    if (anyone_here || !future_arrival) return;
  }
}

void LockstepAdapter::on_departure(PlayerId player) {
  const std::size_t pv = player.value();
  ACP_EXPECTS(pv < n_);
  if (departed_[pv]) return;
  departed_[pv] = true;
  if (!informed_ && !participant_[pv]) {
    // Departed before ever being scheduled: it no longer gates closure.
    ACP_EXPECTS(expected_participants_ > 0);
    --expected_participants_;
  }
  // Losing a participant can complete the current virtual round.
  close_round_if_done();
}

std::optional<ObjectId> LockstepAdapter::choose_probe(
    PlayerId player, const Billboard& billboard, Rng& rng) {
  const std::size_t pv = player.value();
  ACP_EXPECTS(pv < n_);
  if (!participant_[pv]) {
    // Lazy discovery: first time the scheduler runs this player. Informed
    // membership covers every player the engine can schedule.
    ACP_EXPECTS(!informed_);
    ACP_EXPECTS(seen_participants_ < expected_participants_);
    participant_[pv] = true;
    ++seen_participants_;
    local_round_[pv] = vround_;
  }
  ingest_real(billboard);

  if (local_round_[pv] > vround_) {
    return std::nullopt;  // ahead of the pack: wait, cost-free
  }

  if (!round_open_) {
    inner_->on_round_begin(vround_, *virtual_bb_);
    round_open_ = true;
  }

  const auto choice = inner_->choose_probe(player, vround_, rng);
  if (!choice.has_value()) {
    // A genuine idle step of the synchronous protocol still consumes the
    // player's round.
    complete_step(player);
    return std::nullopt;
  }
  return choice;
}

StepOutcome LockstepAdapter::on_probe_result(PlayerId player, ObjectId object,
                                             double value, double cost,
                                             bool locally_good, Rng& rng) {
  StepOutcome out = inner_->on_probe_result(player, vround_, object, value,
                                            cost, locally_good, rng);
  if (out.post.has_value()) {
    // Stage for the virtual billboard (virtual-round stamp); the engine
    // also records it on the real billboard with the step stamp.
    staged_.push_back(Post{player, vround_, out.post->object,
                           out.post->reported_value, out.post->positive});
  }
  if (out.halt && !halted_[player.value()]) {
    halted_[player.value()] = true;
    ++halted_count_;
  }
  ++probes_in_round_;
  complete_step(player);
  return out;
}

RunResult LockstepEngine::run(const World& world, const Population& population,
                              Protocol& protocol, Adversary& adversary,
                              Scheduler& scheduler,
                              const LockstepRunConfig& config) {
  LockstepAdapter adapter(protocol, population.num_honest());
  adapter.set_observer(config.observer);
  adapter.set_participants(population, config.arrivals);
  if (config.observer != nullptr) {
    config.observer->on_run_begin(RunContext{population.num_players(),
                                             population.num_honest(),
                                             world.num_objects(),
                                             config.seed});
  }
  AsyncRunConfig async_config;
  async_config.max_steps = config.max_steps;
  async_config.seed = config.seed;
  async_config.arrivals = config.arrivals;
  async_config.departures = config.departures;
  async_config.billboard = config.billboard;
  // The async engine gets no observer of its own: the attached observer
  // sees the simulated synchronous run (virtual rounds), not raw steps.
  RunResult result = AsyncEngine::run(world, population, adapter, adversary,
                                      scheduler, async_config);
  if (config.observer != nullptr) config.observer->on_run_end(result);
  return result;
}

}  // namespace acp
