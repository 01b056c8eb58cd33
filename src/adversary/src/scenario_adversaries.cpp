// Scenario-registry factories for the Byzantine strategy library (§2.3).
// See acp/scenario/modules.hpp for how these registrations reach the
// process-wide registry.

#include <sstream>
#include <stdexcept>

#include "acp/adversary/split_vote.hpp"
#include "acp/adversary/strategies.hpp"
#include "acp/adversary/targeted_slander.hpp"
#include "acp/core/distill.hpp"
#include "acp/engine/adversary.hpp"
#include "acp/scenario/modules.hpp"
#include "acp/scenario/registry.hpp"

namespace acp::scenario {

namespace {

/// The protocol-aware strategies observe DISTILL's phase schedule; every
/// other protocol has nothing for them to watch, so the combination is a
/// configuration error, not a silent no-op.
const DistillProtocol& require_distill(const AdversaryBuildContext& ctx,
                                       const char* adversary) {
  const auto* distill = dynamic_cast<const DistillProtocol*>(&ctx.protocol);
  if (distill == nullptr) {
    throw std::invalid_argument(
        std::string("adversary '") + adversary +
        "' requires protocol 'distill' or 'distill-hp' (it observes "
        "DISTILL's phase schedule), got protocol '" + ctx.spec.protocol +
        "'");
  }
  return *distill;
}

std::unique_ptr<Adversary> make_silent(const AdversaryBuildContext& ctx) {
  ctx.spec.adversary_params.require_known("adversary 'silent'", {});
  return std::make_unique<SilentAdversary>();
}

std::unique_ptr<Adversary> make_slander(const AdversaryBuildContext& ctx) {
  ctx.spec.adversary_params.require_known("adversary 'slander'", {});
  return std::make_unique<SlandererAdversary>();
}

std::unique_ptr<Adversary> make_eager(const AdversaryBuildContext& ctx) {
  ctx.spec.adversary_params.require_known("adversary 'eager'", {});
  return std::make_unique<EagerVoteAdversary>();
}

std::unique_ptr<Adversary> make_collude(const AdversaryBuildContext& ctx) {
  const ParamMap& p = ctx.spec.adversary_params;
  p.require_known("adversary 'collude'", {"decoys"});
  return std::make_unique<CollusionAdversary>(p.get_size("decoys", 4));
}

std::unique_ptr<Adversary> make_spam(const AdversaryBuildContext& ctx) {
  const ParamMap& p = ctx.spec.adversary_params;
  p.require_known("adversary 'spam'", {"decoys"});
  return std::make_unique<SpamAdversary>(p.get_size("decoys", 4));
}

std::unique_ptr<Adversary> make_splitvote(const AdversaryBuildContext& ctx) {
  const ParamMap& p = ctx.spec.adversary_params;
  p.require_known("adversary 'splitvote'",
                  {"flood_budget_fraction", "seed_budget_fraction"});
  const DistillProtocol& distill = require_distill(ctx, "splitvote");
  SplitVoteParams params;
  params.flood_budget_fraction =
      p.get("flood_budget_fraction", params.flood_budget_fraction);
  params.seed_budget_fraction =
      p.get("seed_budget_fraction", params.seed_budget_fraction);
  // The two budgets share one pool of dishonest players.
  const auto fraction = [](const char* key, double value) {
    if (!(value >= 0.0 && value <= 1.0)) {
      std::ostringstream message;
      message << "adversary 'splitvote': " << key << " must be in [0, 1], got "
              << value;
      throw std::invalid_argument(message.str());
    }
  };
  fraction("flood_budget_fraction", params.flood_budget_fraction);
  fraction("seed_budget_fraction", params.seed_budget_fraction);
  if (params.flood_budget_fraction + params.seed_budget_fraction > 1.0) {
    std::ostringstream message;
    message << "adversary 'splitvote': flood_budget_fraction + "
               "seed_budget_fraction must be at most 1 (they share the "
               "dishonest players), got "
            << params.flood_budget_fraction << " + "
            << params.seed_budget_fraction;
    throw std::invalid_argument(message.str());
  }
  return std::make_unique<SplitVoteAdversary>(distill, params);
}

std::unique_ptr<Adversary> make_liar(const AdversaryBuildContext& ctx) {
  const ParamMap& p = ctx.spec.adversary_params;
  p.require_known("adversary 'liar'", {"claimed_value"});
  return std::make_unique<ValueLiarAdversary>(p.get("claimed_value", 1e9));
}

std::unique_ptr<Adversary> make_targeted_slander(
    const AdversaryBuildContext& ctx) {
  ctx.spec.adversary_params.require_known("adversary 'targeted-slander'", {});
  return std::make_unique<TargetedSlanderAdversary>(
      require_distill(ctx, "targeted-slander"));
}

}  // namespace

void register_builtin_adversaries(AdversaryRegistry& registry) {
  registry.add("silent", make_silent);
  registry.add("slander", make_slander);
  registry.add("eager", make_eager);
  registry.add("collude", make_collude);
  registry.add("spam", make_spam);
  registry.add("splitvote", make_splitvote);
  registry.add("liar", make_liar);
  registry.add("targeted-slander", make_targeted_slander);
}

}  // namespace acp::scenario
