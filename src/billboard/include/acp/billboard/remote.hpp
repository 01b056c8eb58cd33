// RemoteBillboard — a BillboardService backed by acp_billboardd.
//
// One blocking bbwire connection per service instance. With the default
// pipeline depth of 1, commits are a round-trip: encode the batch, send,
// wait for the server's kCommitOk — only then is the same batch applied
// to the local mirror, so the mirror never runs ahead of the
// authoritative server log and a server-side rejection (kError) surfaces
// as an exception *before* any local state changed. Reads (the
// protocols' hot path) never touch the socket: they go through the
// mirror, which is exactly why remote runs are bit-identical to
// in-process runs.
//
// Pipelining (pipeline > 1, private boards only): up to K commits ride
// the wire before the first ack is read — the protocol is
// length-prefixed and replies are FIFO per connection, so acks match
// in-flight commits by order. The batch is applied to the mirror
// optimistically at send time (on a private board the server accepts
// exactly what a local Billboard accepts, so the mirror still equals
// the server log at every read point of a correct run), each ack is
// verified against the expected log size, and every in-flight ack is
// drained before a stat or snapshot touches the socket. The trade: a
// rejection now surfaces on a *later* call, after the mirror advanced.
// Shared named boards stay at depth 1 — their ack-size bookkeeping
// drives the pull-tail catch-up and cannot tolerate mirror lead.
//
// Shared boards: a non-empty board name joins a server-side board shared
// with other connections. When the commit reply shows other connections
// advanced the board (reply size > mirror size + batch size), the client
// pulls the missing tail and folds it into the mirror — which therefore
// must be a replica-mode board (arbitrary authors/stamps per batch).
// Private per-connection boards (the engine configuration) never pull.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "acp/billboard/service.hpp"
#include "acp/billboard/wire.hpp"
#include "acp/net/frame.hpp"
#include "acp/net/socket.hpp"
#include "acp/obs/bandwidth.hpp"

namespace acp::obs {
class TimerStat;
}

namespace acp {

class RemoteBillboard final : public BillboardService {
 public:
  /// Connect to `endpoint` and open a board: private to this connection
  /// when `board` is empty, shared under that name otherwise. `pipeline`
  /// is the commit in-flight window (clamped to 1 on shared boards).
  RemoteBillboard(const net::Endpoint& endpoint, std::size_t num_players,
                  std::size_t num_objects,
                  Billboard::Mode mode = Billboard::Mode::kAuthoritative,
                  std::string board = {}, std::size_t pipeline = 1);

  /// Adopt an already-connected stream socket (socketpair in tests).
  RemoteBillboard(net::FdHandle fd, std::size_t num_players,
                  std::size_t num_objects,
                  Billboard::Mode mode = Billboard::Mode::kAuthoritative,
                  std::string board = {}, std::size_t pipeline = 1);

  /// Effective commit window (1 unless constructed pipelined).
  [[nodiscard]] std::size_t pipeline() const noexcept { return pipeline_; }

  void commit_round(Round round, std::vector<Post> posts) override;
  void commit_round_from(Round round, std::span<const Post> posts) override;
  void reserve(std::size_t expected_posts) override;
  [[nodiscard]] const Billboard& board() const noexcept override {
    return mirror_;
  }
  [[nodiscard]] std::vector<Post> snapshot() override;
  [[nodiscard]] std::string backend_name() const override;

  /// Server-reported board state (kStat round-trip).
  [[nodiscard]] bbwire::BoardStateMsg stat();

 private:
  void open_board(Billboard::Mode mode);
  /// Send `out_` and return the next reply frame, unwrapping kError into
  /// an exception. The returned payload aliases assembler storage: decode
  /// before the next transact/read.
  [[nodiscard]] net::Frame transact(obs::IoChannel channel);
  [[nodiscard]] net::Frame read_frame(obs::IoChannel channel);
  [[noreturn]] void unexpected_reply(net::Frame reply, const char* wanted);
  /// Fold the server tail [mirror.size, server_size) into the mirror.
  void pull_tail(std::uint64_t server_size, Round server_last_round);
  /// One kPull of [begin, end): the posts of the reply, which may stop
  /// short of `end` but is never empty.
  [[nodiscard]] std::vector<Post> pull(std::uint64_t begin, std::uint64_t end);
  /// Read one pending commit ack and verify its reported log size.
  void drain_one_ack();
  /// Read every in-flight commit ack (before a stat or a pull).
  void drain_acks();

  net::FdHandle fd_;
  std::string board_name_;
  std::string peer_;  ///< endpoint string for backend_name/errors
  Billboard mirror_;
  net::FrameAssembler assembler_;
  std::vector<std::uint8_t> out_;        ///< encode buffer, reused
  std::vector<std::uint8_t> recv_buf_;   ///< socket read chunk, reused
  std::size_t pipeline_ = 1;
  /// Expected server log size per unacked in-flight commit (FIFO).
  std::deque<std::uint64_t> pending_acks_;
  obs::TimerStat* commit_timer_;
};

}  // namespace acp
