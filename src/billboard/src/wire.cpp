#include "acp/billboard/wire.hpp"

namespace acp::bbwire {

namespace {

using net::begin_frame;
using net::end_frame;
using net::PayloadReader;
using net::put_string;
using net::put_varint;
using net::put_varint_signed;

/// A post needs at least author(1) + round(1) + object(1) + value(8) +
/// flags(1) bytes; a declared count that cannot fit in the remaining
/// payload is a corrupt count field, rejected before any allocation.
constexpr std::uint64_t kMinPostBytes = 12;

std::uint64_t read_post_count(PayloadReader& reader) {
  const std::uint64_t count = reader.varint();
  if (count > reader.remaining() / kMinPostBytes) {
    reader.fail("post count " + std::to_string(count) +
                " cannot fit in a " + std::to_string(reader.remaining()) +
                "-byte payload");
  }
  return count;
}

std::vector<Post> read_posts(PayloadReader& reader, std::uint64_t count,
                             std::uint64_t num_players,
                             std::uint64_t num_objects) {
  std::vector<Post> posts;
  posts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    posts.push_back(decode_post(reader, num_players, num_objects));
  }
  return posts;
}

}  // namespace

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kOpen: return "open";
    case MsgType::kOpenOk: return "open_ok";
    case MsgType::kCommit: return "commit";
    case MsgType::kCommitOk: return "commit_ok";
    case MsgType::kPull: return "pull";
    case MsgType::kPosts: return "posts";
    case MsgType::kWindowQuery: return "window_query";
    case MsgType::kWindowCount: return "window_count";
    case MsgType::kWindowBatch: return "window_batch";
    case MsgType::kWindowCounts: return "window_counts";
    case MsgType::kReserve: return "reserve";
    case MsgType::kStat: return "stat";
    case MsgType::kStatOk: return "stat_ok";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

// -- Post codec -------------------------------------------------------------

void encode_post(std::vector<std::uint8_t>& out, const Post& post) {
  put_varint(out, post.author.value());
  put_varint_signed(out, post.round);
  put_varint(out, post.object.value());
  net::put_double(out, post.reported_value);
  out.push_back(post.positive ? 1 : 0);
}

Post decode_post(PayloadReader& reader, std::uint64_t num_players,
                 std::uint64_t num_objects) {
  Post post;
  const std::uint64_t author = reader.varint();
  if (author >= num_players) {
    reader.fail("post author " + std::to_string(author) +
                " out of range (board has " + std::to_string(num_players) +
                " players)");
  }
  post.author = PlayerId(static_cast<std::size_t>(author));
  post.round = reader.varint_signed();
  const std::uint64_t object = reader.varint();
  if (object >= num_objects) {
    reader.fail("post object " + std::to_string(object) +
                " out of range (board has " + std::to_string(num_objects) +
                " objects)");
  }
  post.object = ObjectId(static_cast<std::size_t>(object));
  post.reported_value = reader.f64();
  const std::uint8_t flags = reader.u8();
  if (flags > 1) {
    reader.fail("post flags byte " + std::to_string(flags) +
                " has unknown bits set (only bit 0 = positive is defined)");
  }
  post.positive = flags != 0;
  return post;
}

// -- Encoders ---------------------------------------------------------------

void encode_open(std::vector<std::uint8_t>& out, const OpenMsg& msg) {
  const std::size_t at = begin_frame(out, static_cast<std::uint8_t>(MsgType::kOpen));
  out.push_back(msg.mode);
  put_varint(out, msg.num_players);
  put_varint(out, msg.num_objects);
  put_string(out, msg.board);
  end_frame(out, at);
}

void encode_board_state(std::vector<std::uint8_t>& out, MsgType type,
                        const BoardStateMsg& msg) {
  const std::size_t at = begin_frame(out, static_cast<std::uint8_t>(type));
  put_varint(out, msg.size);
  put_varint_signed(out, msg.last_round);
  end_frame(out, at);
}

void encode_commit(std::vector<std::uint8_t>& out, Round round,
                   std::span<const Post> posts) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kCommit));
  put_varint_signed(out, round);
  put_varint(out, posts.size());
  for (const Post& post : posts) encode_post(out, post);
  end_frame(out, at);
}

void encode_pull(std::vector<std::uint8_t>& out, const PullMsg& msg) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kPull));
  put_varint(out, msg.begin);
  put_varint(out, msg.end);
  end_frame(out, at);
}

void encode_posts(std::vector<std::uint8_t>& out, std::span<const Post> posts) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kPosts));
  put_varint(out, posts.size());
  for (const Post& post : posts) encode_post(out, post);
  end_frame(out, at);
}

void encode_posts(std::vector<std::uint8_t>& out, const PostRange& posts,
                  std::size_t first, std::size_t last) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kPosts));
  put_varint(out, last - first);
  posts.for_each(first, last,
                 [&out](const Post& post) { encode_post(out, post); });
  end_frame(out, at);
}

void encode_window_query(std::vector<std::uint8_t>& out,
                         const WindowQueryMsg& msg) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kWindowQuery));
  put_varint(out, msg.object);
  put_varint_signed(out, msg.begin);
  put_varint_signed(out, msg.end);
  end_frame(out, at);
}

void encode_window_count(std::vector<std::uint8_t>& out, Count count) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kWindowCount));
  put_varint_signed(out, count);
  end_frame(out, at);
}

void encode_window_batch(std::vector<std::uint8_t>& out, Round begin, Round end,
                         std::span<const ObjectId> objects) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kWindowBatch));
  put_varint_signed(out, begin);
  put_varint_signed(out, end);
  put_varint(out, objects.size());
  for (const ObjectId object : objects) put_varint(out, object.value());
  end_frame(out, at);
}

void encode_window_counts(std::vector<std::uint8_t>& out,
                          std::span<const Count> counts) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kWindowCounts));
  put_varint(out, counts.size());
  for (const Count count : counts) put_varint_signed(out, count);
  end_frame(out, at);
}

void encode_reserve(std::vector<std::uint8_t>& out, std::uint64_t expected) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kReserve));
  put_varint(out, expected);
  end_frame(out, at);
}

void encode_stat(std::vector<std::uint8_t>& out) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kStat));
  end_frame(out, at);
}

void encode_error(std::vector<std::uint8_t>& out, std::string_view message) {
  const std::size_t at =
      begin_frame(out, static_cast<std::uint8_t>(MsgType::kError));
  put_string(out, message);
  end_frame(out, at);
}

// -- Decoders ---------------------------------------------------------------

OpenMsg decode_open(std::span<const std::uint8_t> payload) {
  PayloadReader reader(payload, "open");
  OpenMsg msg;
  msg.mode = reader.u8();
  if (msg.mode > 1) {
    reader.fail("board mode " + std::to_string(msg.mode) +
                " unknown (0 = authoritative, 1 = replica)");
  }
  msg.num_players = reader.varint();
  msg.num_objects = reader.varint();
  if (msg.num_players == 0 || msg.num_objects == 0) {
    reader.fail("board dimensions must be positive (got " +
                std::to_string(msg.num_players) + " players, " +
                std::to_string(msg.num_objects) + " objects)");
  }
  if (msg.num_players > kMaxIdCount || msg.num_objects > kMaxIdCount) {
    reader.fail("board dimensions must be below 2^32, the 32-bit id range "
                "(got " + std::to_string(msg.num_players) + " players, " +
                std::to_string(msg.num_objects) + " objects)");
  }
  msg.board = reader.string(kMaxBoardNameLen);
  reader.expect_done();
  return msg;
}

BoardStateMsg decode_board_state(std::span<const std::uint8_t> payload,
                                 MsgType type) {
  PayloadReader reader(payload, msg_type_name(type));
  BoardStateMsg msg;
  msg.size = reader.varint();
  msg.last_round = reader.varint_signed();
  reader.expect_done();
  return msg;
}

CommitMsg decode_commit(std::span<const std::uint8_t> payload,
                        std::uint64_t num_players, std::uint64_t num_objects) {
  PayloadReader reader(payload, "commit");
  CommitMsg msg;
  msg.round = reader.varint_signed();
  const std::uint64_t count = read_post_count(reader);
  msg.posts = read_posts(reader, count, num_players, num_objects);
  reader.expect_done();
  return msg;
}

PullMsg decode_pull(std::span<const std::uint8_t> payload) {
  PayloadReader reader(payload, "pull");
  PullMsg msg;
  msg.begin = reader.varint();
  msg.end = reader.varint();
  if (msg.begin > msg.end) {
    reader.fail("range [" + std::to_string(msg.begin) + ", " +
                std::to_string(msg.end) + ") is inverted");
  }
  reader.expect_done();
  return msg;
}

PostsMsg decode_posts(std::span<const std::uint8_t> payload,
                      std::uint64_t num_players, std::uint64_t num_objects) {
  PayloadReader reader(payload, "posts");
  PostsMsg msg;
  const std::uint64_t count = read_post_count(reader);
  msg.posts = read_posts(reader, count, num_players, num_objects);
  reader.expect_done();
  return msg;
}

WindowQueryMsg decode_window_query(std::span<const std::uint8_t> payload,
                                   std::uint64_t num_objects) {
  PayloadReader reader(payload, "window_query");
  WindowQueryMsg msg;
  msg.object = reader.varint();
  if (msg.object >= num_objects) {
    reader.fail("object " + std::to_string(msg.object) +
                " out of range (board has " + std::to_string(num_objects) +
                " objects)");
  }
  msg.begin = reader.varint_signed();
  msg.end = reader.varint_signed();
  reader.expect_done();
  return msg;
}

WindowCountMsg decode_window_count(std::span<const std::uint8_t> payload) {
  PayloadReader reader(payload, "window_count");
  WindowCountMsg msg;
  msg.count = reader.varint_signed();
  reader.expect_done();
  return msg;
}

WindowBatchMsg decode_window_batch(std::span<const std::uint8_t> payload,
                                   std::uint64_t num_objects) {
  PayloadReader reader(payload, "window_batch");
  WindowBatchMsg msg;
  msg.begin = reader.varint_signed();
  msg.end = reader.varint_signed();
  const std::uint64_t count = reader.varint();
  if (count > reader.remaining()) {  // each object id is >= 1 byte
    reader.fail("object count " + std::to_string(count) +
                " cannot fit in a " + std::to_string(reader.remaining()) +
                "-byte payload");
  }
  msg.objects.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t object = reader.varint();
    if (object >= num_objects) {
      reader.fail("object " + std::to_string(object) +
                  " out of range (board has " + std::to_string(num_objects) +
                  " objects)");
    }
    msg.objects.push_back(object);
  }
  reader.expect_done();
  return msg;
}

WindowCountsMsg decode_window_counts(std::span<const std::uint8_t> payload) {
  PayloadReader reader(payload, "window_counts");
  WindowCountsMsg msg;
  const std::uint64_t count = reader.varint();
  if (count > reader.remaining()) {
    reader.fail("count " + std::to_string(count) + " cannot fit in a " +
                std::to_string(reader.remaining()) + "-byte payload");
  }
  msg.counts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    msg.counts.push_back(reader.varint_signed());
  }
  reader.expect_done();
  return msg;
}

ReserveMsg decode_reserve(std::span<const std::uint8_t> payload) {
  PayloadReader reader(payload, "reserve");
  ReserveMsg msg;
  msg.expected_posts = reader.varint();
  reader.expect_done();
  return msg;
}

ErrorMsg decode_error(std::span<const std::uint8_t> payload) {
  PayloadReader reader(payload, "error");
  ErrorMsg msg;
  msg.message = reader.string(4096);
  reader.expect_done();
  return msg;
}

}  // namespace acp::bbwire
