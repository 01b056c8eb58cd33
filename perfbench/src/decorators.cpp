#include "decorators.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_stats_id{1};

std::uint64_t elapsed_ns(Clock::time_point from) {
  return static_cast<std::uint64_t>(ns_since(from, Clock::now()));
}

}  // namespace

CoreStats::CoreStats() : id_(next_stats_id.fetch_add(1)) {}

CoreStats::Lane& CoreStats::lane() {
  // Ids are never reused, so a thread's cached slot can only belong to the
  // instance that handed it out.
  thread_local std::uint64_t cached_id = 0;
  thread_local std::size_t cached_slot = 0;
  if (cached_id != id_) {
    const std::size_t slot = lanes_used_.fetch_add(1, std::memory_order_acq_rel);
    if (slot >= kMaxLanes) {
      throw std::runtime_error("perfbench: more protocol threads than lanes");
    }
    cached_id = id_;
    cached_slot = slot;
  }
  return lanes_[cached_slot];
}

CoreStats::Round CoreStats::close_round() {
  Round round;
  const std::size_t used = lanes_used();
  std::uint64_t total_round_ns = 0;
  for (std::size_t i = 0; i < used; ++i) {
    Lane& l = lanes_[i];
    round.critical_ns = std::max(round.critical_ns, l.round_ns);
    total_round_ns += l.round_ns;
    l.busy_ns += l.round_ns;
    l.round_ns = 0;
  }
  if (used > 0) round.wait_ns = round.critical_ns - total_round_ns / used;
  return round;
}

void TracedProtocol::on_round_begin(acp::Round round,
                                    const acp::Billboard& billboard) {
  const auto start = Clock::now();
  inner_->on_round_begin(round, billboard);
  stats_->add_round_begin(elapsed_ns(start));
}

std::optional<acp::ObjectId> TracedProtocol::choose_probe(acp::PlayerId player,
                                                          acp::Round round,
                                                          acp::Rng& rng) {
  const auto start = Clock::now();
  auto choice = inner_->choose_probe(player, round, rng);
  const std::uint64_t ns = elapsed_ns(start);
  CoreStats::Lane& lane = stats_->lane();
  ++lane.steps;
  lane.step_ns += ns;
  lane.round_ns += ns;
  return choice;
}

acp::StepOutcome TracedProtocol::on_probe_result(acp::PlayerId player,
                                                 acp::Round round,
                                                 acp::ObjectId object,
                                                 double value, double cost,
                                                 bool locally_good,
                                                 acp::Rng& rng) {
  const auto start = Clock::now();
  acp::StepOutcome outcome = inner_->on_probe_result(
      player, round, object, value, cost, locally_good, rng);
  const std::uint64_t ns = elapsed_ns(start);
  CoreStats::Lane& lane = stats_->lane();
  lane.step_ns += ns;
  lane.round_ns += ns;
  return outcome;
}

void TracedAdversary::plan_round(const acp::AdversaryContext& ctx,
                                 std::vector<acp::Post>& out, acp::Rng& rng) {
  const std::size_t before = out.size();
  const auto start = Clock::now();
  inner_->plan_round(ctx, out, rng);
  stats_->plan_ns += elapsed_ns(start);
  stats_->posts += out.size() - before;
}

void TracedService::commit_round(acp::Round round,
                                 std::vector<acp::Post> posts) {
  // Timed through the same path as commit_round_from so both entry points
  // report alike; the vector is only a staging buffer here.
  commit_round_from(round, posts);
}

void TracedService::commit_round_from(acp::Round round,
                                      std::span<const acp::Post> posts) {
  const auto start = Clock::now();
  inner_->commit_round_from(round, posts);
  const auto end = Clock::now();
  log_->ns.push_back(static_cast<double>(ns_since(start, end)));
  log_->start_ns.push_back(ns_since(log_->epoch, start));
  log_->posts_committed += posts.size();
  if (log_->keep_batches) {
    const std::size_t begin = log_->posts.size();
    log_->posts.insert(log_->posts.end(), posts.begin(), posts.end());
    log_->batches.push_back(CommitLog::Batch{round, begin, log_->posts.size()});
  }
}

void TrialTrace::on_run_begin(const acp::RunContext& /*context*/) {
  run_begin_ns_ = ns_since(commits.epoch, Clock::now());
  last_end_ns_ = run_begin_ns_;
}

void TrialTrace::on_round_end(acp::Round /*round*/,
                              const acp::Billboard& billboard,
                              std::size_t /*active_honest*/,
                              std::size_t /*satisfied_honest*/,
                              std::size_t /*probes_this_round*/) {
  RoundSpan span;
  span.start_ns = last_end_ns_;
  span.end_ns = ns_since(commits.epoch, Clock::now());
  last_end_ns_ = span.end_ns;

  span.core = core.close_round();
  std::uint64_t steps = 0;
  std::uint64_t step_ns = 0;
  for (std::size_t i = 0; i < core.lanes_used(); ++i) {
    steps += core.lane_at(i).steps;
    step_ns += core.lane_at(i).step_ns;
  }
  // Lane counters are cumulative; the span keeps this round's share.
  span.core.steps = steps - seen_steps_;
  span.core.step_ns = step_ns - seen_step_ns_;
  seen_steps_ = steps;
  seen_step_ns_ = step_ns;

  span.round_begin_ns = core.round_begin_ns - seen_round_begin_ns_;
  seen_round_begin_ns_ = core.round_begin_ns;
  span.adversary_ns = adversary.plan_ns - seen_adversary_ns_;
  seen_adversary_ns_ = adversary.plan_ns;
  for (; seen_commits_ < commits.ns.size(); ++seen_commits_) {
    span.commit_ns += static_cast<std::uint64_t>(commits.ns[seen_commits_]);
  }
  rounds.push_back(span);
  final_board_size = billboard.size();
}

void TrialTrace::write_spans(std::ostream& os) const {
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-3; };
  os << "{\"name\": \"run\", \"id\": 0, \"parent\": null, \"start_us\": "
     << us(run_begin_ns_) << ", \"end_us\": " << us(last_end_ns_) << "}\n";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundSpan& s = rounds[r];
    os << "{\"name\": \"round\", \"id\": " << r
       << ", \"parent\": \"run\", \"start_us\": " << us(s.start_ns)
       << ", \"end_us\": " << us(s.end_ns) << ", \"steps\": " << s.core.steps
       << ", \"step_ns\": " << s.core.step_ns
       << ", \"critical_ns\": " << s.core.critical_ns
       << ", \"round_begin_ns\": " << s.round_begin_ns
       << ", \"adversary_ns\": " << s.adversary_ns
       << ", \"commit_ns\": " << s.commit_ns << "}\n";
  }
  // A commit belongs to the round whose span contains its start.
  std::size_t r = 0;
  for (std::size_t c = 0; c < commits.ns.size(); ++c) {
    const std::int64_t start = commits.start_ns[c];
    while (r + 1 < rounds.size() && rounds[r].end_ns < start) ++r;
    os << "{\"name\": \"commit\", \"id\": " << c << ", \"parent\": " << r
       << ", \"start_us\": " << us(start) << ", \"end_us\": "
       << us(start + static_cast<std::int64_t>(commits.ns[c])) << "}\n";
  }
}

}  // namespace perfbench
