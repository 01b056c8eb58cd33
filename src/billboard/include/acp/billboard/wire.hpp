// Message codec of the billboard wire protocol "acp.bbwire.v1".
//
// acp::net owns the byte-level framing (header, varints, FrameAssembler);
// this layer gives the frames meaning: the request/reply vocabulary a
// billboard client and server speak, and the Post encoding both share.
// Every message is one frame; the frame `type` byte is a MsgType.
//
//   client -> server                server -> client
//   ----------------                ----------------
//   kOpen    open/join a board      kOpenOk   board dims + current state
//   kCommit  post batch for round   kCommitOk size + last round after
//   kPull    post-log range [a,b)   kPosts    the posts of that range
//   kWindowQuery  one-object count  kWindowCount
//   kWindowBatch  many-object count kWindowCounts
//   kReserve capacity hint          (no reply)
//   kStat    board stats            kStatOk
//                                   kError    failed request (any)
//
// A Post travels as: author varint · round zigzag-varint · object varint ·
// reported_value 8B LE IEEE-754 · flags u8 (bit 0 = positive). At the
// modeled 161 wire bits per post (BandwidthMeter::kPostWireBits) this
// concrete encoding averages ~12-14 bytes — the same order as the model.
//
// Decoders validate everything against the declared board dimensions and
// throw net::WireFormatError with actionable messages; the server answers
// kError instead of crashing, clients surface the error to the caller.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "acp/billboard/billboard.hpp"
#include "acp/billboard/post.hpp"
#include "acp/billboard/post_range.hpp"
#include "acp/net/frame.hpp"
#include "acp/util/types.hpp"

namespace acp::bbwire {

inline constexpr const char* kWireSchema = "acp.bbwire.v1";

enum class MsgType : std::uint8_t {
  kOpen = 1,
  kOpenOk = 2,
  kCommit = 3,
  kCommitOk = 4,
  kPull = 5,
  kPosts = 6,
  kWindowQuery = 7,
  kWindowCount = 8,
  kWindowBatch = 9,
  kWindowCounts = 10,
  kReserve = 11,
  kStat = 12,
  kStatOk = 13,
  kError = 14,
};

[[nodiscard]] const char* msg_type_name(MsgType type) noexcept;

/// Longest accepted shared-board name in kOpen.
inline constexpr std::size_t kMaxBoardNameLen = 64;

// -- Message bodies ---------------------------------------------------------

/// Open a board session. An empty `board` name opens a private board owned
/// by this connection; a non-empty name joins (creating on first open) a
/// board shared by every connection that names it — dimensions must match.
struct OpenMsg {
  std::uint8_t mode = 0;  ///< 0 = kAuthoritative, 1 = kReplica
  std::uint64_t num_players = 0;
  std::uint64_t num_objects = 0;
  std::string board;

  [[nodiscard]] Billboard::Mode billboard_mode() const noexcept {
    return mode == 0 ? Billboard::Mode::kAuthoritative
                     : Billboard::Mode::kReplica;
  }
};

/// Board state snapshot: answers kOpen (existing posts of a shared board),
/// kCommit (state after the commit) and kStat alike.
struct BoardStateMsg {
  std::uint64_t size = 0;         ///< posts committed so far
  Round last_round = -1;          ///< last committed round
};

struct CommitMsg {
  Round round = 0;
  std::vector<Post> posts;
};

/// Post-log range [begin, end) — how a client catches its mirror up after
/// other connections advanced a shared board.
struct PullMsg {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct PostsMsg {
  std::vector<Post> posts;
};

struct WindowQueryMsg {
  std::uint64_t object = 0;
  Round begin = 0;
  Round end = 0;
};

struct WindowCountMsg {
  Count count = 0;
};

struct WindowBatchMsg {
  Round begin = 0;
  Round end = 0;
  std::vector<std::uint64_t> objects;
};

struct WindowCountsMsg {
  std::vector<Count> counts;
};

struct ReserveMsg {
  std::uint64_t expected_posts = 0;
};

struct ErrorMsg {
  std::string message;
};

// -- Post codec -------------------------------------------------------------

void encode_post(std::vector<std::uint8_t>& out, const Post& post);

/// Decode one post, validating author < num_players, object < num_objects.
[[nodiscard]] Post decode_post(net::PayloadReader& reader,
                               std::uint64_t num_players,
                               std::uint64_t num_objects);

// -- Encoders (append one complete frame to `out`) --------------------------

void encode_open(std::vector<std::uint8_t>& out, const OpenMsg& msg);
void encode_board_state(std::vector<std::uint8_t>& out, MsgType type,
                        const BoardStateMsg& msg);
void encode_commit(std::vector<std::uint8_t>& out, Round round,
                   std::span<const Post> posts);
void encode_pull(std::vector<std::uint8_t>& out, const PullMsg& msg);
void encode_posts(std::vector<std::uint8_t>& out, std::span<const Post> posts);
/// Posts [first, last) of a board, as one kPosts frame (what a pull
/// answers). The same bytes as the span form over those posts.
void encode_posts(std::vector<std::uint8_t>& out, const PostRange& posts,
                  std::size_t first, std::size_t last);
void encode_window_query(std::vector<std::uint8_t>& out,
                         const WindowQueryMsg& msg);
void encode_window_count(std::vector<std::uint8_t>& out, Count count);
void encode_window_batch(std::vector<std::uint8_t>& out, Round begin, Round end,
                         std::span<const ObjectId> objects);
void encode_window_counts(std::vector<std::uint8_t>& out,
                          std::span<const Count> counts);
void encode_reserve(std::vector<std::uint8_t>& out, std::uint64_t expected);
void encode_stat(std::vector<std::uint8_t>& out);
void encode_error(std::vector<std::uint8_t>& out, std::string_view message);

// -- Decoders (validate + throw net::WireFormatError on malformed input) ----

[[nodiscard]] OpenMsg decode_open(std::span<const std::uint8_t> payload);
[[nodiscard]] BoardStateMsg decode_board_state(
    std::span<const std::uint8_t> payload, MsgType type);
/// Board dimensions bound author/object validation for the posts.
[[nodiscard]] CommitMsg decode_commit(std::span<const std::uint8_t> payload,
                                      std::uint64_t num_players,
                                      std::uint64_t num_objects);
[[nodiscard]] PullMsg decode_pull(std::span<const std::uint8_t> payload);
[[nodiscard]] PostsMsg decode_posts(std::span<const std::uint8_t> payload,
                                    std::uint64_t num_players,
                                    std::uint64_t num_objects);
[[nodiscard]] WindowQueryMsg decode_window_query(
    std::span<const std::uint8_t> payload, std::uint64_t num_objects);
[[nodiscard]] WindowCountMsg decode_window_count(
    std::span<const std::uint8_t> payload);
[[nodiscard]] WindowBatchMsg decode_window_batch(
    std::span<const std::uint8_t> payload, std::uint64_t num_objects);
[[nodiscard]] WindowCountsMsg decode_window_counts(
    std::span<const std::uint8_t> payload);
[[nodiscard]] ReserveMsg decode_reserve(std::span<const std::uint8_t> payload);
[[nodiscard]] ErrorMsg decode_error(std::span<const std::uint8_t> payload);

}  // namespace acp::bbwire
