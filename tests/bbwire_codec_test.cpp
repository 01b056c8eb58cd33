// Frame-codec hardening for the acp.bbwire.v1 wire protocol: round-trip
// properties over randomized messages, plus rejection of truncated,
// oversized, corrupt and out-of-range frames with actionable messages.
#include <cstdint>
#include <span>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acp/billboard/wire.hpp"
#include "acp/net/frame.hpp"
#include "acp/rng/rng.hpp"

namespace acp {
namespace {

using bbwire::MsgType;

/// Carve exactly one frame out of `bytes`, asserting the declared type.
net::Frame one_frame(net::FrameAssembler& assembler,
                     const std::vector<std::uint8_t>& bytes, MsgType want) {
  assembler.append(bytes);
  auto frame = assembler.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<std::uint8_t>(want));
  return *frame;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(BbwireCodec, PostRoundTripsRandomized) {
  Rng rng(42);
  constexpr std::uint64_t kPlayers = 50'000;
  constexpr std::uint64_t kObjects = 4096;
  for (int trial = 0; trial < 500; ++trial) {
    Post post;
    post.author = PlayerId{rng.index(kPlayers)};
    post.round = static_cast<Round>(rng.index(1'000'000)) - 1;  // includes -1
    post.object = ObjectId{rng.index(kObjects)};
    post.reported_value = rng.uniform01() * 1e6 - 5e5;
    post.positive = rng.uniform01() < 0.5;

    std::vector<std::uint8_t> bytes;
    bbwire::encode_post(bytes, post);
    net::PayloadReader reader(bytes, "test");
    const Post decoded = bbwire::decode_post(reader, kPlayers, kObjects);
    reader.expect_done();
    EXPECT_EQ(decoded, post);
  }
}

TEST(BbwireCodec, CommitRoundTripsRandomized) {
  Rng rng(7);
  constexpr std::uint64_t kPlayers = 256;
  constexpr std::uint64_t kObjects = 64;
  for (int trial = 0; trial < 50; ++trial) {
    const Round round = static_cast<Round>(rng.index(100'000));
    std::vector<Post> posts(rng.index(40));
    for (Post& post : posts) {
      post.author = PlayerId{rng.index(kPlayers)};
      post.round = round;
      post.object = ObjectId{rng.index(kObjects)};
      post.reported_value = rng.uniform01();
      post.positive = rng.uniform01() < 0.8;
    }

    std::vector<std::uint8_t> bytes;
    bbwire::encode_commit(bytes, round, posts);
    net::FrameAssembler assembler;
    const net::Frame frame = one_frame(assembler, bytes, MsgType::kCommit);
    const bbwire::CommitMsg msg =
        bbwire::decode_commit(frame.payload, kPlayers, kObjects);
    EXPECT_EQ(msg.round, round);
    EXPECT_EQ(msg.posts, posts);
  }
}

TEST(BbwireCodec, PostsFromARangeMatchPostsFromASpan) {
  // A pull encodes from the board's segmented log; its bytes must be the
  // span encoding's, including ranges that cross a segment boundary.
  constexpr std::size_t kSegment = PostLog::kSegmentPosts;
  Rng rng(11);
  std::vector<Post> posts;
  for (std::size_t i = 0; i < kSegment + 50; ++i) {
    posts.push_back(Post{PlayerId{rng.index(64)},
                         static_cast<Round>(rng.index(100)),
                         ObjectId{rng.index(32)}, rng.uniform01(),
                         rng.bernoulli(0.5)});
  }
  Billboard board(64, 32, Billboard::Mode::kReplica);
  board.commit_round_from(100, posts);
  for (const auto& [first, last] :
       {std::pair<std::size_t, std::size_t>{0, 0},
        {0, posts.size()},
        {kSegment - 3, kSegment + 9},
        {kSegment, kSegment + 50},
        {17, 40}}) {
    std::vector<std::uint8_t> from_range;
    std::vector<std::uint8_t> from_span;
    bbwire::encode_posts(from_range, board.posts(), first, last);
    bbwire::encode_posts(from_span, std::span<const Post>(posts).subspan(
                                        first, last - first));
    EXPECT_EQ(from_range, from_span) << first << ".." << last;
  }
}

TEST(BbwireCodec, ControlMessagesRoundTrip) {
  net::FrameAssembler assembler;
  std::vector<std::uint8_t> bytes;

  bbwire::OpenMsg open;
  open.mode = 1;
  open.num_players = 123;
  open.num_objects = 45;
  open.board = "shared";
  bbwire::encode_open(bytes, open);
  {
    const net::Frame frame = one_frame(assembler, bytes, MsgType::kOpen);
    const bbwire::OpenMsg decoded = bbwire::decode_open(frame.payload);
    EXPECT_EQ(decoded.mode, open.mode);
    EXPECT_EQ(decoded.num_players, open.num_players);
    EXPECT_EQ(decoded.num_objects, open.num_objects);
    EXPECT_EQ(decoded.board, open.board);
    EXPECT_EQ(decoded.billboard_mode(), Billboard::Mode::kReplica);
  }

  bytes.clear();
  bbwire::encode_board_state(bytes, MsgType::kCommitOk, {77, Round{12}});
  {
    const net::Frame frame = one_frame(assembler, bytes, MsgType::kCommitOk);
    const bbwire::BoardStateMsg decoded =
        bbwire::decode_board_state(frame.payload, MsgType::kCommitOk);
    EXPECT_EQ(decoded.size, 77u);
    EXPECT_EQ(decoded.last_round, 12);
  }

  bytes.clear();
  bbwire::encode_error(bytes, "round 4 is not after round 7");
  {
    const net::Frame frame = one_frame(assembler, bytes, MsgType::kError);
    const bbwire::ErrorMsg decoded = bbwire::decode_error(frame.payload);
    EXPECT_EQ(decoded.message, "round 4 is not after round 7");
  }
}

TEST(BbwireCodec, AssemblerSplitsArbitraryChunks) {
  // Three frames delivered one byte at a time must come out whole and in
  // order — the server never sees aligned reads.
  std::vector<std::uint8_t> stream;
  bbwire::encode_stat(stream);
  bbwire::encode_reserve(stream, 1000);
  bbwire::encode_pull(stream, {2, 9});

  net::FrameAssembler assembler;
  std::vector<std::uint8_t> types;
  for (const std::uint8_t byte : stream) {
    assembler.append(std::span(&byte, 1));
    while (auto frame = assembler.next()) types.push_back(frame->type);
  }
  EXPECT_EQ(types, (std::vector<std::uint8_t>{
                       static_cast<std::uint8_t>(MsgType::kStat),
                       static_cast<std::uint8_t>(MsgType::kReserve),
                       static_cast<std::uint8_t>(MsgType::kPull)}));
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(BbwireCodec, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes;
  bbwire::encode_stat(bytes);
  bytes[0] = 0x00;  // corrupt the magic
  net::FrameAssembler assembler;
  assembler.append(bytes);
  try {
    (void)assembler.next();
    FAIL() << "bad magic accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "bad magic"));
    EXPECT_TRUE(contains(e.what(), "not an acp.bbwire.v1 stream"));
  }
}

TEST(BbwireCodec, RejectsBadVersion) {
  std::vector<std::uint8_t> bytes;
  bbwire::encode_stat(bytes);
  bytes[2] = 9;
  net::FrameAssembler assembler;
  assembler.append(bytes);
  try {
    (void)assembler.next();
    FAIL() << "bad version accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "unsupported version 9"));
  }
}

TEST(BbwireCodec, RejectsOversizedLength) {
  std::vector<std::uint8_t> bytes;
  bbwire::encode_stat(bytes);
  bytes[7] = 0xFF;  // length high byte -> way past kMaxFramePayload
  net::FrameAssembler assembler;
  assembler.append(bytes);
  try {
    (void)assembler.next();
    FAIL() << "oversized length accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "payload limit"));
  }
}

TEST(BbwireCodec, TruncatedFrameIsIncompleteNotError) {
  std::vector<std::uint8_t> bytes;
  bbwire::encode_reserve(bytes, 42);
  net::FrameAssembler assembler;
  assembler.append(std::span(bytes.data(), bytes.size() - 1));
  EXPECT_FALSE(assembler.next().has_value());  // waiting for the last byte
  assembler.append(std::span(bytes.data() + bytes.size() - 1, 1));
  EXPECT_TRUE(assembler.next().has_value());
}

TEST(BbwireCodec, RejectsTruncatedPayload) {
  std::vector<std::uint8_t> bytes;
  Post post;
  post.author = PlayerId{3};
  post.round = 1;
  post.object = ObjectId{2};
  bbwire::encode_commit(bytes, 1, std::span<const Post>(&post, 1));
  // Chop the payload and fix up the length so the frame parses but the
  // message decoder hits the end mid-post.
  bytes.resize(bytes.size() - 4);
  const std::size_t payload_len = bytes.size() - net::kFrameHeaderSize;
  for (int i = 0; i < 4; ++i) {
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
  net::FrameAssembler assembler;
  assembler.append(bytes);
  const auto frame = assembler.next();
  ASSERT_TRUE(frame.has_value());
  try {
    (void)bbwire::decode_commit(frame->payload, 16, 16);
    FAIL() << "truncated commit accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "commit"));
    EXPECT_TRUE(contains(e.what(), "payload offset"));
  }
}

TEST(BbwireCodec, RejectsOutOfRangeAuthorAndObject) {
  Post post;
  post.author = PlayerId{7};
  post.round = 0;
  post.object = ObjectId{2};

  std::vector<std::uint8_t> bytes;
  bbwire::encode_post(bytes, post);
  {
    net::PayloadReader reader(bytes, "commit");
    try {
      (void)bbwire::decode_post(reader, 7, 16);  // author 7 of players 0..6
      FAIL() << "out-of-range author accepted";
    } catch (const net::WireFormatError& e) {
      EXPECT_TRUE(contains(e.what(), "author"));
      EXPECT_TRUE(contains(e.what(), "7 players"));
    }
  }
  {
    net::PayloadReader reader(bytes, "commit");
    try {
      (void)bbwire::decode_post(reader, 16, 2);  // object 2 of objects 0..1
      FAIL() << "out-of-range object accepted";
    } catch (const net::WireFormatError& e) {
      EXPECT_TRUE(contains(e.what(), "object"));
      EXPECT_TRUE(contains(e.what(), "2 objects"));
    }
  }
}

TEST(BbwireCodec, RejectsUnknownPostFlags) {
  Post post;
  post.author = PlayerId{0};
  post.object = ObjectId{0};
  std::vector<std::uint8_t> bytes;
  bbwire::encode_post(bytes, post);
  bytes.back() |= 0x40;  // set a reserved flag bit
  net::PayloadReader reader(bytes, "commit");
  try {
    (void)bbwire::decode_post(reader, 4, 4);
    FAIL() << "reserved flags accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "flags"));
  }
}

TEST(BbwireCodec, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes;
  bbwire::encode_pull(bytes, {0, 5});
  // Append a junk byte to the payload and patch the length.
  bytes.push_back(0xAB);
  const std::size_t payload_len = bytes.size() - net::kFrameHeaderSize;
  for (int i = 0; i < 4; ++i) {
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
  net::FrameAssembler assembler;
  assembler.append(bytes);
  const auto frame = assembler.next();
  ASSERT_TRUE(frame.has_value());
  try {
    (void)bbwire::decode_pull(frame->payload);
    FAIL() << "trailing bytes accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "trailing bytes"));
  }
}

TEST(BbwireCodec, RejectsAbsurdPostCount) {
  // A count field claiming more posts than the payload could possibly
  // hold must be rejected before any allocation happens.
  std::vector<std::uint8_t> bytes;
  const std::size_t header =
      net::begin_frame(bytes, static_cast<std::uint8_t>(MsgType::kPosts));
  net::put_varint(bytes, 1u << 30);  // one billion posts, zero bytes of them
  net::end_frame(bytes, header);
  net::FrameAssembler assembler;
  assembler.append(bytes);
  const auto frame = assembler.next();
  ASSERT_TRUE(frame.has_value());
  try {
    (void)bbwire::decode_posts(frame->payload, 16, 16);
    FAIL() << "absurd post count accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "cannot fit"));
  }
}

TEST(BbwireCodec, RejectsInvertedPullRange) {
  std::vector<std::uint8_t> bytes;
  bbwire::encode_pull(bytes, {9, 2});
  net::FrameAssembler assembler;
  assembler.append(bytes);
  const auto frame = assembler.next();
  ASSERT_TRUE(frame.has_value());
  try {
    (void)bbwire::decode_pull(frame->payload);
    FAIL() << "inverted range accepted";
  } catch (const net::WireFormatError& e) {
    EXPECT_TRUE(contains(e.what(), "range"));
  }
}

TEST(BbwireCodec, EncodeRejectsOversizedFrame) {
  std::vector<std::uint8_t> bytes;
  const std::size_t header = net::begin_frame(bytes, 1);
  bytes.resize(bytes.size() + net::kMaxFramePayload + 1);
  EXPECT_THROW(net::end_frame(bytes, header), net::WireFormatError);
}

}  // namespace
}  // namespace acp
