#include "acp/billboard/service.hpp"

#include "acp/billboard/remote.hpp"
#include "acp/billboard/vote_ledger.hpp"

namespace acp {

namespace {

/// The §4 one-vote rule over `board`, built fresh for one count.
VoteLedger first_positive_ledger(const Billboard& board) {
  VoteLedger ledger(VotePolicy::kFirstPositive, board.num_players(),
                    board.num_objects());
  ledger.ingest(board);
  return ledger;
}

}  // namespace

Count BillboardService::votes_in_window(ObjectId object, Round begin,
                                        Round end) {
  return first_positive_ledger(board()).votes_in_window(object, begin, end);
}

void BillboardService::votes_in_window_batch(std::span<const ObjectId> objects,
                                             Round begin, Round end,
                                             std::vector<Count>& out) {
  first_positive_ledger(board()).votes_in_window_batch(objects, begin, end,
                                                       out);
}

InProcessBillboard::InProcessBillboard(std::size_t num_players,
                                       std::size_t num_objects,
                                       Billboard::Mode mode)
    : board_(num_players, num_objects, mode) {}

void InProcessBillboard::commit_round(Round round, std::vector<Post> posts) {
  board_.commit_round(round, std::move(posts));
}

void InProcessBillboard::commit_round_from(Round round,
                                           std::span<const Post> posts) {
  board_.commit_round_from(round, posts);
}

void InProcessBillboard::reserve(std::size_t expected_posts) {
  board_.reserve(expected_posts);
}

std::vector<Post> InProcessBillboard::snapshot() {
  return board_.posts().to_vector();
}

BillboardBackendSpec BillboardBackendSpec::parse(std::string_view text) {
  if (text == "inproc") {
    return BillboardBackendSpec{};
  }
  BillboardBackendSpec spec;
  spec.in_process = false;
  spec.endpoint = net::Endpoint::parse(text);  // throws with accepted forms
  return spec;
}

std::string BillboardBackendSpec::to_string() const {
  return in_process ? "inproc" : endpoint.to_string();
}

std::unique_ptr<BillboardService> make_billboard_service(
    const BillboardBackendSpec& spec, std::size_t num_players,
    std::size_t num_objects, Billboard::Mode mode) {
  if (spec.in_process) {
    return std::make_unique<InProcessBillboard>(num_players, num_objects, mode);
  }
  return std::make_unique<RemoteBillboard>(spec.endpoint, num_players,
                                           num_objects, mode);
}

}  // namespace acp
