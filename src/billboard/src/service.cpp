#include "acp/billboard/service.hpp"

#include "acp/billboard/remote.hpp"
#include "acp/billboard/vote_ledger.hpp"

namespace acp {

/// VoteLedger with the ingest bookkeeping the window queries need. The
/// one-vote rule is a read-side policy (vote_ledger.hpp): the service
/// answers with kFirstPositive, f = 1 — the §4 configuration — matching
/// what the server core uses, so both backends count identically.
class InProcessBillboard::QueryLedger {
 public:
  QueryLedger(std::size_t num_players, std::size_t num_objects)
      : ledger_(VotePolicy::kFirstPositive, num_players, num_objects) {}

  VoteLedger& fresh(const Billboard& board) {
    ledger_.ingest(board);
    return ledger_;
  }

 private:
  VoteLedger ledger_;
};

InProcessBillboard::InProcessBillboard(std::size_t num_players,
                                       std::size_t num_objects,
                                       Billboard::Mode mode)
    : board_(num_players, num_objects, mode) {}

InProcessBillboard::~InProcessBillboard() = default;

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

InProcessBillboard::QueryLedger& InProcessBillboard::ledger() {
  if (!ledger_) {
    ledger_ = std::make_unique<QueryLedger>(board_.num_players(),
                                            board_.num_objects());
  }
  return *ledger_;
}

Count InProcessBillboard::votes_in_window(ObjectId object, Round begin,
                                          Round end) {
  return ledger().fresh(board_).votes_in_window(object, begin, end);
}

void InProcessBillboard::votes_in_window_batch(std::span<const ObjectId> objects,
                                               Round begin, Round end,
                                               std::vector<Count>& out) {
  ledger().fresh(board_).votes_in_window_batch(objects, begin, end, out);
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
