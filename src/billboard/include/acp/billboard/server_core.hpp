// BillboardServerCore — the transport-free half of acp_billboardd.
//
// The core speaks bytes-in/bytes-out: the event loop (server.hpp) or a
// test hands it whatever arrived on a connection, and it appends whatever
// should be written back. That split keeps every protocol rule — framing,
// validation, board semantics, error replies — testable without sockets,
// and lets the codec-hardening tests feed it arbitrary garbage.
//
// Boards: a session that opens with an empty name gets a private board
// (dropped with the session); a non-empty name joins a server-wide shared
// board, created on first open, with dimension/mode agreement enforced.
// Authoritative boards take commits under the exact Billboard contract
// (stamps equal the commit round, one post per author, rounds strictly
// increasing). Replica/shared boards accept each batch at arrival round
// max(declared, last+1) — the PR 3 out-of-order ingest path — so many
// connections can feed one board without coordinating round numbers.
//
// Sharding: the multi-threaded server runs one core per IO worker, and
// *named* shared boards are owned by the worker `owner_shard(name,
// shards) % workers` — every Billboard stays single-writer. A core
// constructed as worker w of W therefore refuses to handle frames for
// boards another worker owns: on_bytes hands them to the ForwardFn
// (the event loop ships them over a mailbox), and the owning worker
// applies them through apply_forwarded(), whose reply bytes travel back
// the same way. Private boards (empty name) are always owned by the
// session's home worker and never forwarded. The default-constructed
// core is worker 0 of 1 and owns everything — the single-threaded
// server and the direct-core tests are unchanged.
//
// Error policy: a malformed *payload* (bad range, bad round, unknown
// message) gets a kError reply and the connection lives on; a broken
// *stream* (bad magic, corrupt length — the framing itself is gone) gets
// a final kError and the connection is closed, since nothing after a
// desync can be trusted.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/billboard/vote_ledger.hpp"
#include "acp/billboard/wire.hpp"
#include "acp/net/frame.hpp"

namespace acp {

class BillboardServerCore {
 public:
  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_active = 0;
    std::uint64_t boards = 0;
    std::uint64_t commits = 0;
    std::uint64_t posts = 0;
    std::uint64_t queries = 0;
    std::uint64_t pulls = 0;
    std::uint64_t errors = 0;
    std::uint64_t forwarded = 0;  ///< frames shipped to another worker
  };

  /// Worker 0 of 1: owns every board, forwards nothing.
  BillboardServerCore() : BillboardServerCore(0, 1, 1) {}

  /// Worker `worker` of `workers`, with board names hashed over `shards`
  /// buckets (bucket b belongs to worker b % workers). `shards` >=
  /// `workers` keeps bucket placement stable while the thread count
  /// varies.
  BillboardServerCore(std::size_t worker, std::size_t workers,
                      std::size_t shards);

  /// Hash bucket of a named shared board — splitmix-mixed FNV-1a, so the
  /// placement is deterministic across runs and processes (tests pick
  /// board names per shard with this).
  [[nodiscard]] static std::size_t owner_shard(std::string_view board,
                                               std::size_t shards) noexcept;

  /// The worker that owns `board` under this core's geometry.
  [[nodiscard]] std::size_t owner_worker(std::string_view board) const
      noexcept {
    return owner_shard(board, shards_) % workers_;
  }
  [[nodiscard]] std::size_t worker_index() const noexcept { return worker_; }

  /// Called for each complete frame whose board another worker owns:
  /// (owner_worker, session, frame type, payload). The payload span is
  /// only valid during the call — copy it into the mailbox.
  using ForwardFn =
      std::function<void(std::size_t owner_worker, std::uint64_t session,
                         std::uint8_t type,
                         std::span<const std::uint8_t> payload)>;

  /// Register a new connection; returns its session id.
  [[nodiscard]] std::uint64_t open_session();

  /// Drop a connection's session state (its private board with it).
  /// Returns the worker that must be told (via close_forwarded) to drop
  /// the session's remote board binding, if the session was forwarded.
  std::optional<std::size_t> close_session(std::uint64_t session);

  /// Feed bytes received from `session`; complete requests append their
  /// replies to `out`. Returns false when the stream is unrecoverable and
  /// the caller should close the connection after flushing `out`.
  /// Without a ForwardFn the core must own every board (workers == 1).
  [[nodiscard]] bool on_bytes(std::uint64_t session,
                              std::span<const std::uint8_t> data,
                              std::vector<std::uint8_t>& out);
  [[nodiscard]] bool on_bytes(std::uint64_t session,
                              std::span<const std::uint8_t> data,
                              std::vector<std::uint8_t>& out,
                              const ForwardFn& forward);

  /// Owner-side entry: apply one forwarded frame from the remote session
  /// `token` (unique across source workers), appending reply bytes to
  /// `out` (empty for fire-and-forget messages). Never closes anything:
  /// framing problems are detected on the session's home worker, and
  /// payload errors answer kError like the local path.
  void apply_forwarded(std::uint64_t token, std::uint8_t type,
                       std::span<const std::uint8_t> payload,
                       std::vector<std::uint8_t>& out);

  /// Owner-side: the remote session hung up; drop its board binding.
  void close_forwarded(std::uint64_t token);

  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  /// One board plus its read-side ledger (the §4 one-vote rule lives on
  /// the server so window queries are a single RPC, not a post transfer).
  struct BoardState {
    BoardState(std::size_t num_players, std::size_t num_objects,
               Billboard::Mode mode)
        : board(num_players, num_objects, mode),
          ledger(VotePolicy::kFirstPositive, num_players, num_objects) {}

    Billboard board;
    VoteLedger ledger;
    std::vector<ObjectId> object_scratch;
    std::vector<Count> count_scratch;
    // Generation-stamped duplicate-author check for authoritative commits.
    std::vector<std::uint64_t> author_seen;
    std::uint64_t commit_epoch = 0;
  };

  struct Session {
    net::FrameAssembler assembler;
    std::shared_ptr<BoardState> board;  ///< null until kOpen (local boards)
    bool forwarded = false;  ///< board lives on another worker
    std::size_t owner = 0;   ///< owning worker when forwarded
  };

  /// Returns false when the connection must close.
  bool handle_frame(Session& session, std::uint64_t session_id,
                    net::Frame frame, std::vector<std::uint8_t>& out,
                    const ForwardFn* forward);
  /// Everything a session can ask of a board it already opened. Shared
  /// verbatim by the local and the forwarded path.
  void handle_board_frame(BoardState& board, bbwire::MsgType type,
                          std::span<const std::uint8_t> payload,
                          std::vector<std::uint8_t>& out);
  /// Local open (private or owned name) or pin-and-forward to the owner.
  void handle_open_or_forward(Session& session, std::uint64_t session_id,
                              std::span<const std::uint8_t> payload,
                              std::vector<std::uint8_t>& out,
                              const ForwardFn* forward);
  /// Create-or-join of a *named* board this core owns. Returns null after
  /// appending a kError reply (dimension/mode mismatch).
  std::shared_ptr<BoardState> join_named_board(const bbwire::OpenMsg& msg,
                                               std::vector<std::uint8_t>& out);
  void handle_commit(BoardState& board, std::span<const std::uint8_t> payload,
                     std::vector<std::uint8_t>& out);
  void handle_pull(BoardState& board, std::span<const std::uint8_t> payload,
                   std::vector<std::uint8_t>& out);
  void send_error(std::vector<std::uint8_t>& out, const std::string& message);
  /// A request that ran out of memory (std::bad_alloc) or asked for more
  /// than a container can hold (std::length_error): the reply bytes from
  /// `reply_start` on are replaced by one kError, and serving goes on.
  void send_resource_error(std::vector<std::uint8_t>& out,
                           std::size_t reply_start, bbwire::MsgType type,
                           const char* reason);

  std::size_t worker_ = 0;
  std::size_t workers_ = 1;
  std::size_t shards_ = 1;
  std::uint64_t next_session_ = 1;
  std::unordered_map<std::uint64_t, Session> sessions_;
  /// Shared boards by name. Kept for the server's lifetime so a board
  /// outlives the connections that fed it (bbload opens, loads, leaves).
  std::map<std::string, std::shared_ptr<BoardState>> shared_boards_;
  /// Owner-side bindings of forwarded sessions (token -> opened board).
  std::unordered_map<std::uint64_t, std::shared_ptr<BoardState>>
      remote_sessions_;
  Stats stats_;
};

}  // namespace acp
