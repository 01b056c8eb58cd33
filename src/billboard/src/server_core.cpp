#include "acp/billboard/server_core.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>

#include "acp/util/contracts.hpp"

namespace acp {

namespace {

using bbwire::MsgType;

}  // namespace

BillboardServerCore::BillboardServerCore(std::size_t worker,
                                         std::size_t workers,
                                         std::size_t shards)
    : worker_(worker), workers_(workers), shards_(shards) {
  ACP_EXPECTS(workers >= 1);
  ACP_EXPECTS(worker < workers);
  ACP_EXPECTS(shards >= workers);
}

std::size_t BillboardServerCore::owner_shard(std::string_view board,
                                             std::size_t shards) noexcept {
  // FNV-1a over the name, splitmix64-finalized: FNV alone is weak in the
  // low bits we take the modulus of.
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : board) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  hash = (hash ^ (hash >> 30)) * 0xBF58476D1CE4E5B9ull;
  hash = (hash ^ (hash >> 27)) * 0x94D049BB133111EBull;
  hash ^= hash >> 31;
  return shards == 0 ? 0 : static_cast<std::size_t>(hash % shards);
}

std::uint64_t BillboardServerCore::open_session() {
  const std::uint64_t id = next_session_++;
  sessions_.emplace(id, Session{});
  ++stats_.sessions_opened;
  ++stats_.sessions_active;
  return id;
}

std::optional<std::size_t> BillboardServerCore::close_session(
    std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return std::nullopt;
  }
  const bool forwarded = it->second.forwarded;
  const std::size_t owner = it->second.owner;
  sessions_.erase(it);
  --stats_.sessions_active;
  if (forwarded) {
    return owner;
  }
  return std::nullopt;
}

bool BillboardServerCore::on_bytes(std::uint64_t session,
                                   std::span<const std::uint8_t> data,
                                   std::vector<std::uint8_t>& out) {
  // Without a forward path every board must be ours.
  ACP_EXPECTS(workers_ == 1);
  return on_bytes(session, data, out, ForwardFn{});
}

bool BillboardServerCore::on_bytes(std::uint64_t session,
                                   std::span<const std::uint8_t> data,
                                   std::vector<std::uint8_t>& out,
                                   const ForwardFn& forward) {
  const auto it = sessions_.find(session);
  ACP_EXPECTS(it != sessions_.end());
  Session& state = it->second;
  state.assembler.append(data);
  for (;;) {
    std::optional<net::Frame> frame;
    try {
      frame = state.assembler.next();
    } catch (const net::WireFormatError& error) {
      // The byte stream itself is corrupt; nothing after this point can
      // be framed. Tell the peer why, then hang up.
      send_error(out, error.what());
      return false;
    }
    if (!frame) {
      return true;
    }
    if (!handle_frame(state, session, *frame, out,
                      forward ? &forward : nullptr)) {
      return false;
    }
  }
}

bool BillboardServerCore::handle_frame(Session& session,
                                       std::uint64_t session_id,
                                       net::Frame frame,
                                       std::vector<std::uint8_t>& out,
                                       const ForwardFn* forward) {
  const MsgType type = static_cast<MsgType>(frame.type);
  const std::size_t reply_start = out.size();
  try {
    if (session.forwarded) {
      // The session is pinned to the owning worker; every frame —
      // including a retried kOpen — travels there so replies stay FIFO
      // on this connection.
      ACP_EXPECTS(forward != nullptr);
      ++stats_.forwarded;
      (*forward)(session.owner, session_id, frame.type, frame.payload);
      return true;
    }
    if (type == MsgType::kOpen) {
      handle_open_or_forward(session, session_id, frame.payload, out,
                             forward);
      return true;
    }
    if (session.board == nullptr) {
      send_error(out, std::string("received ") + bbwire::msg_type_name(type) +
                          " before open — every session must open a board "
                          "first");
      return true;
    }
    handle_board_frame(*session.board, type, frame.payload, out);
    return true;
  } catch (const net::WireFormatError& error) {
    // Malformed payload inside an intact frame: report, keep serving.
    send_error(out, error.what());
    return true;
  } catch (const ContractViolation& error) {
    // Backstop — the explicit pre-validation above should answer first.
    send_error(out, std::string("billboard contract violation: ") +
                        error.what());
    return true;
  } catch (const std::bad_alloc&) {
    send_resource_error(out, reply_start, type, "out of memory");
    return true;
  } catch (const std::length_error& error) {
    send_resource_error(out, reply_start, type, error.what());
    return true;
  }
}

void BillboardServerCore::handle_board_frame(
    BoardState& board, MsgType type, std::span<const std::uint8_t> payload,
    std::vector<std::uint8_t>& out) {
  switch (type) {
    case MsgType::kCommit:
      handle_commit(board, payload, out);
      return;
    case MsgType::kPull:
      handle_pull(board, payload, out);
      return;
    case MsgType::kWindowQuery: {
      const bbwire::WindowQueryMsg query =
          bbwire::decode_window_query(payload, board.board.num_objects());
      board.ledger.ingest(board.board);
      const Count count = board.ledger.votes_in_window(
          ObjectId(static_cast<std::size_t>(query.object)), query.begin,
          query.end);
      bbwire::encode_window_count(out, count);
      ++stats_.queries;
      return;
    }
    case MsgType::kWindowBatch: {
      const bbwire::WindowBatchMsg query =
          bbwire::decode_window_batch(payload, board.board.num_objects());
      board.object_scratch.clear();
      board.object_scratch.reserve(query.objects.size());
      for (const std::uint64_t object : query.objects) {
        board.object_scratch.push_back(
            ObjectId(static_cast<std::size_t>(object)));
      }
      board.ledger.ingest(board.board);
      board.ledger.votes_in_window_batch(board.object_scratch, query.begin,
                                         query.end, board.count_scratch);
      bbwire::encode_window_counts(out, board.count_scratch);
      ++stats_.queries;
      return;
    }
    case MsgType::kReserve: {
      const bbwire::ReserveMsg msg = bbwire::decode_reserve(payload);
      // Clamp: a hostile hint must not become an allocation bomb.
      constexpr std::uint64_t kMaxReserve = 1u << 24;
      board.board.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(msg.expected_posts, kMaxReserve)));
      return;  // fire-and-forget, no reply
    }
    case MsgType::kStat: {
      bbwire::BoardStateMsg state;
      state.size = board.board.size();
      state.last_round = board.board.last_committed_round();
      bbwire::encode_board_state(out, MsgType::kStatOk, state);
      return;
    }
    default:
      send_error(out,
                 std::string("unexpected message type ") +
                     bbwire::msg_type_name(type) +
                     " (clients send open/commit/pull/window_query/"
                     "window_batch/reserve/stat)");
      return;
  }
}

void BillboardServerCore::handle_open_or_forward(
    Session& session, std::uint64_t session_id,
    std::span<const std::uint8_t> payload, std::vector<std::uint8_t>& out,
    const ForwardFn* forward) {
  const bbwire::OpenMsg msg = bbwire::decode_open(payload);
  if (session.board != nullptr) {
    send_error(out, "session already opened a board");
    return;
  }
  if (msg.board.empty()) {
    // Private board: always owned here, dropped with the session.
    session.board = std::make_shared<BoardState>(
        static_cast<std::size_t>(msg.num_players),
        static_cast<std::size_t>(msg.num_objects), msg.billboard_mode());
    ++stats_.boards;
  } else {
    const std::size_t owner = owner_worker(msg.board);
    if (owner != worker_) {
      // Pin the session to the owning worker and ship the open there;
      // the owner validates and replies through the mailbox.
      ACP_EXPECTS(forward != nullptr);
      session.forwarded = true;
      session.owner = owner;
      ++stats_.forwarded;
      (*forward)(owner, session_id, static_cast<std::uint8_t>(MsgType::kOpen),
                 payload);
      return;
    }
    session.board = join_named_board(msg, out);
    if (session.board == nullptr) {
      return;  // join_named_board already sent the error
    }
  }
  bbwire::BoardStateMsg state;
  state.size = session.board->board.size();
  state.last_round = session.board->board.last_committed_round();
  bbwire::encode_board_state(out, MsgType::kOpenOk, state);
}

std::shared_ptr<BillboardServerCore::BoardState>
BillboardServerCore::join_named_board(const bbwire::OpenMsg& msg,
                                      std::vector<std::uint8_t>& out) {
  const auto it = shared_boards_.find(msg.board);
  if (it != shared_boards_.end()) {
    const std::shared_ptr<BoardState>& board = it->second;
    if (board->board.num_players() != msg.num_players ||
        board->board.num_objects() != msg.num_objects ||
        board->board.mode() != msg.billboard_mode()) {
      send_error(out,
                 "shared board \"" + msg.board + "\" already exists with " +
                     std::to_string(board->board.num_players()) +
                     " players, " +
                     std::to_string(board->board.num_objects()) +
                     " objects, mode " +
                     (board->board.mode() == Billboard::Mode::kAuthoritative
                          ? "authoritative"
                          : "replica") +
                     " — dimensions and mode must match to join");
      return nullptr;
    }
    return board;
  }
  auto board = std::make_shared<BoardState>(
      static_cast<std::size_t>(msg.num_players),
      static_cast<std::size_t>(msg.num_objects), msg.billboard_mode());
  shared_boards_.emplace(msg.board, board);
  ++stats_.boards;
  return board;
}

void BillboardServerCore::apply_forwarded(std::uint64_t token,
                                          std::uint8_t type,
                                          std::span<const std::uint8_t> payload,
                                          std::vector<std::uint8_t>& out) {
  const MsgType msg_type = static_cast<MsgType>(type);
  const std::size_t reply_start = out.size();
  try {
    if (msg_type == MsgType::kOpen) {
      if (remote_sessions_.find(token) != remote_sessions_.end()) {
        send_error(out, "session already opened a board");
        return;
      }
      const bbwire::OpenMsg msg = bbwire::decode_open(payload);
      if (msg.board.empty() || owner_worker(msg.board) != worker_) {
        // A failed remote open pins the connection to this worker; a
        // retry naming a board that lives elsewhere cannot be routed
        // without breaking reply order. Reconnecting is the answer.
        send_error(out, "board \"" + msg.board +
                            "\" is not owned by this connection's shard (a "
                            "failed open pins the connection to one shard; "
                            "reconnect to open this board)");
        return;
      }
      std::shared_ptr<BoardState> board = join_named_board(msg, out);
      if (board == nullptr) {
        return;
      }
      bbwire::BoardStateMsg state;
      state.size = board->board.size();
      state.last_round = board->board.last_committed_round();
      bbwire::encode_board_state(out, MsgType::kOpenOk, state);
      remote_sessions_.emplace(token, std::move(board));
      return;
    }
    const auto it = remote_sessions_.find(token);
    if (it == remote_sessions_.end()) {
      send_error(out,
                 std::string("received ") + bbwire::msg_type_name(msg_type) +
                     " before open — every session must open a board first");
      return;
    }
    handle_board_frame(*it->second, msg_type, payload, out);
  } catch (const net::WireFormatError& error) {
    send_error(out, error.what());
  } catch (const ContractViolation& error) {
    send_error(out, std::string("billboard contract violation: ") +
                        error.what());
  } catch (const std::bad_alloc&) {
    send_resource_error(out, reply_start, msg_type, "out of memory");
  } catch (const std::length_error& error) {
    send_resource_error(out, reply_start, msg_type, error.what());
  }
}

void BillboardServerCore::close_forwarded(std::uint64_t token) {
  remote_sessions_.erase(token);
}

void BillboardServerCore::handle_commit(BoardState& board,
                                        std::span<const std::uint8_t> payload,
                                        std::vector<std::uint8_t>& out) {
  // decode_commit already validated author/object ranges and flags.
  bbwire::CommitMsg msg = bbwire::decode_commit(
      payload, board.board.num_players(), board.board.num_objects());
  Round commit_round = msg.round;
  if (board.board.mode() == Billboard::Mode::kAuthoritative) {
    if (commit_round <= board.board.last_committed_round()) {
      send_error(out, "commit round " + std::to_string(commit_round) +
                          " is not after the last committed round " +
                          std::to_string(
                              board.board.last_committed_round()));
      return;
    }
    if (board.author_seen.size() != board.board.num_players()) {
      board.author_seen.assign(board.board.num_players(), 0);
    }
    const std::uint64_t epoch = ++board.commit_epoch;
    for (const Post& post : msg.posts) {
      if (post.round != commit_round) {
        send_error(out, "authoritative post stamped round " +
                            std::to_string(post.round) +
                            " does not match commit round " +
                            std::to_string(commit_round));
        return;
      }
      if (post.reported_value < 0.0) {
        send_error(out, "post reported_value must be non-negative");
        return;
      }
      if (board.author_seen[post.author.value()] == epoch) {
        send_error(out, "player " + std::to_string(post.author.value()) +
                            " posted twice in round " +
                            std::to_string(commit_round) +
                            " (one post per author per round)");
        return;
      }
      board.author_seen[post.author.value()] = epoch;
    }
  } else {
    // Replica/shared feed: arrival order is the server's to assign, so
    // many writers need no round coordination (PR 3 out-of-order ingest).
    commit_round =
        std::max(commit_round, board.board.last_committed_round() + 1);
    for (const Post& post : msg.posts) {
      if (post.round > commit_round) {
        send_error(out, "replica post stamped round " +
                            std::to_string(post.round) +
                            " is newer than its arrival round " +
                            std::to_string(commit_round) +
                            " (posts cannot come from the future)");
        return;
      }
      if (post.reported_value < 0.0) {
        send_error(out, "post reported_value must be non-negative");
        return;
      }
    }
  }
  board.board.commit_round_from(commit_round, msg.posts);
  ++stats_.commits;
  stats_.posts += msg.posts.size();
  bbwire::BoardStateMsg state;
  state.size = board.board.size();
  state.last_round = board.board.last_committed_round();
  bbwire::encode_board_state(out, MsgType::kCommitOk, state);
}

void BillboardServerCore::handle_pull(BoardState& board,
                                      std::span<const std::uint8_t> payload,
                                      std::vector<std::uint8_t>& out) {
  const bbwire::PullMsg msg = bbwire::decode_pull(payload);
  const std::uint64_t size = board.board.size();
  const std::uint64_t begin = std::min(msg.begin, size);
  const std::uint64_t end = std::min(msg.end, size);
  bbwire::encode_posts(out, board.board.posts(),
                       static_cast<std::size_t>(begin),
                       static_cast<std::size_t>(end));
  ++stats_.pulls;
}

void BillboardServerCore::send_error(std::vector<std::uint8_t>& out,
                                     const std::string& message) {
  bbwire::encode_error(out, message);
  ++stats_.errors;
}

void BillboardServerCore::send_resource_error(std::vector<std::uint8_t>& out,
                                              std::size_t reply_start,
                                              MsgType type,
                                              const char* reason) {
  // Drop any partial reply, so the peer sees exactly one frame: the error.
  // An open that threw stored nothing: a board enters a session or
  // shared_boards_ only once it is fully built.
  out.resize(reply_start);
  send_error(out, std::string("server could not handle ") +
                      bbwire::msg_type_name(type) + ": " + reason);
}

}  // namespace acp
