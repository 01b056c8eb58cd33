#include "acp/billboard/remote.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "acp/obs/metrics.hpp"
#include "acp/obs/timer.hpp"
#include "acp/util/contracts.hpp"

namespace acp {

namespace {

using bbwire::MsgType;

constexpr std::size_t kRecvChunk = 64 * 1024;

[[nodiscard]] MsgType frame_type(const net::Frame& frame) {
  return static_cast<MsgType>(frame.type);
}

}  // namespace

RemoteBillboard::RemoteBillboard(const net::Endpoint& endpoint,
                                 std::size_t num_players,
                                 std::size_t num_objects, Billboard::Mode mode,
                                 std::string board, std::size_t pipeline)
    : fd_(net::connect_endpoint(endpoint)),
      board_name_(std::move(board)),
      peer_(endpoint.to_string()),
      mirror_(num_players, num_objects, mode),
      commit_timer_(&obs::MetricsRegistry::global().timer(
          "billboard.rpc.commit")) {
  pipeline_ = board_name_.empty() ? std::max<std::size_t>(1, pipeline) : 1;
  recv_buf_.resize(kRecvChunk);
  open_board(mode);
}

RemoteBillboard::RemoteBillboard(net::FdHandle fd, std::size_t num_players,
                                 std::size_t num_objects, Billboard::Mode mode,
                                 std::string board, std::size_t pipeline)
    : fd_(std::move(fd)),
      board_name_(std::move(board)),
      peer_("fd"),
      mirror_(num_players, num_objects, mode),
      commit_timer_(&obs::MetricsRegistry::global().timer(
          "billboard.rpc.commit")) {
  ACP_EXPECTS(fd_.valid());
  pipeline_ = board_name_.empty() ? std::max<std::size_t>(1, pipeline) : 1;
  recv_buf_.resize(kRecvChunk);
  open_board(mode);
}

std::string RemoteBillboard::backend_name() const {
  if (board_name_.empty()) return peer_;
  return peer_ + "#" + board_name_;
}

void RemoteBillboard::open_board(Billboard::Mode mode) {
  bbwire::OpenMsg open;
  open.mode = mode == Billboard::Mode::kAuthoritative ? 0 : 1;
  open.num_players = mirror_.num_players();
  open.num_objects = mirror_.num_objects();
  open.board = board_name_;
  out_.clear();
  bbwire::encode_open(out_, open);
  const net::Frame reply = transact(obs::IoChannel::kBillboardRpcSnapshot);
  if (frame_type(reply) != MsgType::kOpenOk) {
    unexpected_reply(reply, "open_ok");
  }
  const bbwire::BoardStateMsg state =
      bbwire::decode_board_state(reply.payload, MsgType::kOpenOk);
  if (state.size > 0) {
    // Joined a shared board that already has history: fold it in before
    // the caller sees the mirror.
    pull_tail(state.size, state.last_round);
  }
}

void RemoteBillboard::commit_round(Round round, std::vector<Post> posts) {
  commit_round_from(round, posts);
}

void RemoteBillboard::commit_round_from(Round round,
                                        std::span<const Post> posts) {
  const obs::ScopedTimer timer(*commit_timer_);
  if (pipeline_ > 1) {
    // Private board, pipelined: apply optimistically, queue the expected
    // ack, and only block once the window is full. The server checks the
    // same contract the mirror just enforced, so an ack mismatch (or a
    // kError surfacing in a later drain) means a genuinely divergent
    // server — an exception, not a recovery path.
    out_.clear();
    bbwire::encode_commit(out_, round, posts);
    obs::meter_write(obs::IoChannel::kBillboardRpcPost, 1, out_.size() * 8);
    net::send_all(fd_.get(), out_);
    mirror_.commit_round_from(round, posts);
    pending_acks_.push_back(mirror_.size());
    while (pending_acks_.size() >= pipeline_) {
      drain_one_ack();
    }
    return;
  }
  out_.clear();
  bbwire::encode_commit(out_, round, posts);
  const net::Frame reply = transact(obs::IoChannel::kBillboardRpcPost);
  if (frame_type(reply) != MsgType::kCommitOk) {
    unexpected_reply(reply, "commit_ok");
  }
  const bbwire::BoardStateMsg state =
      bbwire::decode_board_state(reply.payload, MsgType::kCommitOk);
  if (state.size == mirror_.size() + posts.size()) {
    // The common (and only private-board) case: the server log is exactly
    // the mirror plus this batch, so echo-applying the batch keeps the
    // mirror bit-identical to an in-process board. Replica boards must
    // echo the server's arrival-round assignment: after a catch-up pull
    // the mirror's last round can be ahead of this writer's declared
    // round, and the server bumped to max(declared, last + 1) too.
    const Round arrival = mirror_.mode() == Billboard::Mode::kReplica
                              ? std::max(round,
                                         mirror_.last_committed_round() + 1)
                              : round;
    mirror_.commit_round_from(arrival, posts);
  } else {
    // A shared board advanced under us; fetch the authoritative tail
    // (which embeds this batch in server order).
    pull_tail(state.size, state.last_round);
  }
}

void RemoteBillboard::reserve(std::size_t expected_posts) {
  // Fire-and-forget: the stream is ordered, so the server sizes its log
  // before any later commit lands. No reply keeps the hint free.
  out_.clear();
  bbwire::encode_reserve(out_, expected_posts);
  obs::meter_write(obs::IoChannel::kBillboardRpcSnapshot, 1,
                   out_.size() * 8);
  net::send_all(fd_.get(), out_);
  mirror_.reserve(expected_posts);
}

void RemoteBillboard::drain_one_ack() {
  const std::uint64_t expected = pending_acks_.front();
  pending_acks_.pop_front();
  const net::Frame reply = read_frame(obs::IoChannel::kBillboardRpcPost);
  if (frame_type(reply) != MsgType::kCommitOk) {
    unexpected_reply(reply, "commit_ok");
  }
  const bbwire::BoardStateMsg state =
      bbwire::decode_board_state(reply.payload, MsgType::kCommitOk);
  if (state.size != expected) {
    throw std::runtime_error(
        "billboard server " + peer_ + " acked a pipelined commit at log size " +
        std::to_string(state.size) + " where the mirror expected " +
        std::to_string(expected) +
        " (another writer on a private board, or a lost frame)");
  }
}

void RemoteBillboard::drain_acks() {
  while (!pending_acks_.empty()) {
    drain_one_ack();
  }
}

std::vector<Post> RemoteBillboard::snapshot() {
  const bbwire::BoardStateMsg state = stat();
  std::vector<Post> posts;
  posts.reserve(static_cast<std::size_t>(state.size));
  while (posts.size() < state.size) {
    const std::vector<Post> batch = pull(posts.size(), state.size);
    posts.insert(posts.end(), batch.begin(), batch.end());
  }
  return posts;
}

bbwire::BoardStateMsg RemoteBillboard::stat() {
  drain_acks();
  out_.clear();
  bbwire::encode_stat(out_);
  const net::Frame reply = transact(obs::IoChannel::kBillboardRpcSnapshot);
  if (frame_type(reply) != MsgType::kStatOk) {
    unexpected_reply(reply, "stat_ok");
  }
  return bbwire::decode_board_state(reply.payload, MsgType::kStatOk);
}

void RemoteBillboard::pull_tail(std::uint64_t server_size,
                                Round server_last_round) {
  ACP_EXPECTS(mirror_.mode() == Billboard::Mode::kReplica);
  while (mirror_.size() < server_size) {
    // Commit the tail at an arrival round that is (a) monotone for the
    // mirror and (b) >= every stamp in the batch (stamps never exceed the
    // server's last committed round).
    const Round arrival =
        std::max(server_last_round, mirror_.last_committed_round() + 1);
    mirror_.commit_round_from(arrival, pull(mirror_.size(), server_size));
  }
}

std::vector<Post> RemoteBillboard::pull(std::uint64_t begin,
                                        std::uint64_t end) {
  out_.clear();
  bbwire::encode_pull(out_, bbwire::PullMsg{begin, end});
  const net::Frame reply = transact(obs::IoChannel::kBillboardRpcSnapshot);
  if (frame_type(reply) != MsgType::kPosts) {
    unexpected_reply(reply, "posts");
  }
  bbwire::PostsMsg batch = bbwire::decode_posts(
      reply.payload, mirror_.num_players(), mirror_.num_objects());
  if (batch.posts.empty()) {
    throw std::runtime_error("billboard server " + peer_ +
                             " returned an empty pull of [" +
                             std::to_string(begin) + ", " +
                             std::to_string(end) + ")");
  }
  return std::move(batch.posts);
}

net::Frame RemoteBillboard::transact(obs::IoChannel channel) {
  obs::meter_write(channel, 1, out_.size() * 8);
  net::send_all(fd_.get(), out_);
  return read_frame(channel);
}

net::Frame RemoteBillboard::read_frame(obs::IoChannel channel) {
  for (;;) {
    if (std::optional<net::Frame> frame = assembler_.next()) {
      obs::meter_read(channel, 1,
                      (net::kFrameHeaderSize + frame->payload.size()) * 8);
      if (frame_type(*frame) == MsgType::kError) {
        const bbwire::ErrorMsg error = bbwire::decode_error(frame->payload);
        throw std::runtime_error("billboard server " + peer_ +
                                 " rejected the request: " + error.message);
      }
      return *frame;
    }
    const std::size_t got = net::recv_some(fd_.get(), recv_buf_);
    if (got == 0) {
      throw net::SocketError("billboard server " + peer_ +
                             " closed the connection mid-reply");
    }
    assembler_.append(std::span<const std::uint8_t>(recv_buf_.data(), got));
  }
}

void RemoteBillboard::unexpected_reply(net::Frame reply, const char* wanted) {
  throw std::runtime_error(
      "billboard server " + peer_ + " sent " +
      bbwire::msg_type_name(frame_type(reply)) + " where " + wanted +
      " was expected");
}

}  // namespace acp
