// BillboardService — the engine-facing billboard boundary.
//
// The paper treats the billboard as a shared *service* (§2.1); the
// engines should not care whether it lives in their address space or
// behind a socket. This interface is that seam:
//
//  * InProcessBillboard — a thin adapter over today's Billboard. The
//    default everywhere; zero overhead over calling Billboard directly.
//  * RemoteBillboard (acp/billboard/remote.hpp) — a client speaking
//    acp.bbwire.v1 to acp_billboardd over a Unix or TCP socket.
//
// Contract: after commit_round(r, …) returns, board() exposes every post
// of rounds <= r and nothing newer — the synchronous visibility rule the
// protocols rely on. board() is a *local* read view (for RemoteBillboard,
// a mirror kept in lockstep with the server by the commit replies), so
// read-heavy protocol inner loops stay allocation- and syscall-free
// regardless of backend; that is also why in-process and remote runs
// produce bit-identical results.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/billboard/post.hpp"
#include "acp/net/socket.hpp"
#include "acp/util/types.hpp"

namespace acp {

class BillboardService {
 public:
  virtual ~BillboardService() = default;

  /// Commit all posts of `round` atomically (Billboard contract: rounds
  /// strictly increasing; mode-dependent stamp rules).
  virtual void commit_round(Round round, std::vector<Post> posts) = 0;

  /// Same, from a caller-owned staging buffer (no per-round vector).
  virtual void commit_round_from(Round round, std::span<const Post> posts) = 0;

  /// Capacity hint: expected total posts of the run.
  virtual void reserve(std::size_t expected_posts) = 0;

  /// The local read view. Always current with the last commit made
  /// *through this service instance* (see the visibility note above).
  [[nodiscard]] virtual const Billboard& board() const noexcept = 0;

  /// Votes for `object` with round in [begin, end) on board(), under the
  /// §4 one-vote rule (kFirstPositive, f = 1). Builds a ledger per call:
  /// no run path counts here — protocols keep their own ledgers. These
  /// two stay virtual only because perfbench's TracedService overrides
  /// them; they leave the interface together with that override.
  [[nodiscard]] virtual Count votes_in_window(ObjectId object, Round begin,
                                              Round end);

  /// votes_in_window for each of `objects` over one window; `out` is
  /// resized to objects.size().
  virtual void votes_in_window_batch(std::span<const ObjectId> objects,
                                     Round begin, Round end,
                                     std::vector<Count>& out);

  /// Copy of the full post log (commit order). Remote backends fetch it
  /// from the server — the one read that bypasses the local mirror, used
  /// by tests to pin mirror ≡ server.
  [[nodiscard]] virtual std::vector<Post> snapshot() = 0;

  /// Backend tag for reports/errors: "inproc", "socket:<path>", …
  [[nodiscard]] virtual std::string backend_name() const = 0;

  // Convenience forwarders so service users read like Billboard users.
  [[nodiscard]] std::size_t size() const noexcept { return board().size(); }
  [[nodiscard]] Round last_committed_round() const noexcept {
    return board().last_committed_round();
  }
  [[nodiscard]] std::size_t num_players() const noexcept {
    return board().num_players();
  }
  [[nodiscard]] std::size_t num_objects() const noexcept {
    return board().num_objects();
  }
};

/// The default backend: owns a Billboard, forwards every call.
class InProcessBillboard final : public BillboardService {
 public:
  InProcessBillboard(std::size_t num_players, std::size_t num_objects,
                     Billboard::Mode mode = Billboard::Mode::kAuthoritative);

  void commit_round(Round round, std::vector<Post> posts) override;
  void commit_round_from(Round round, std::span<const Post> posts) override;
  void reserve(std::size_t expected_posts) override;
  [[nodiscard]] const Billboard& board() const noexcept override {
    return board_;
  }
  [[nodiscard]] std::vector<Post> snapshot() override;
  [[nodiscard]] std::string backend_name() const override { return "inproc"; }

 private:
  Billboard board_;
};

/// Parsed form of the scenario/CLI `billboard.backend` value:
/// "inproc" | "socket:<path>" | "tcp:<host>:<port>".
struct BillboardBackendSpec {
  bool in_process = true;
  net::Endpoint endpoint;  ///< meaningful iff !in_process

  /// Throws std::invalid_argument naming the accepted forms.
  [[nodiscard]] static BillboardBackendSpec parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const BillboardBackendSpec&,
                         const BillboardBackendSpec&) = default;
};

/// Build the backend `spec` names. Remote backends connect immediately
/// (throws net::SocketError if no server is listening) and open a private
/// per-connection board of the given dimensions and mode.
[[nodiscard]] std::unique_ptr<BillboardService> make_billboard_service(
    const BillboardBackendSpec& spec, std::size_t num_players,
    std::size_t num_objects,
    Billboard::Mode mode = Billboard::Mode::kAuthoritative);

}  // namespace acp
