// RemoteBillboard against a live BillboardServer, plus direct
// BillboardServerCore hardening: commits, pulls, shared boards,
// error replies, stream-desync close semantics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "acp/billboard/remote.hpp"
#include "acp/billboard/server.hpp"
#include "acp/billboard/server_core.hpp"
#include "acp/billboard/service.hpp"
#include "acp/billboard/vote_ledger.hpp"

namespace acp {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Post make_post(std::size_t author, Round round, std::size_t object,
               bool positive = true) {
  Post post;
  post.author = PlayerId{author};
  post.round = round;
  post.object = ObjectId{object};
  post.reported_value = 1.0;
  post.positive = positive;
  return post;
}

/// Dimensions and batches of a board whose posts encode past one frame's
/// payload limit: ids above 2^14 and rounds near 2^48 take 23 bytes a
/// post, so 800k posts make ~17.5 MiB.
constexpr std::size_t kWideIds = std::size_t{1} << 20;
constexpr std::size_t kWideBatches = 8;
constexpr std::size_t kWideBatchPosts = 100'000;
constexpr Round kWideRound = Round{1} << 48;

std::vector<Post> wide_batch(std::size_t batch) {
  std::vector<Post> posts;
  posts.reserve(kWideBatchPosts);
  for (std::size_t i = batch * kWideBatchPosts;
       i < (batch + 1) * kWideBatchPosts; ++i) {
    Post post = make_post(16'384 + i * 7'919 % (kWideIds - 16'384),
                          kWideRound + static_cast<Round>(batch),
                          16'384 + i * 104'729 % (kWideIds - 16'384),
                          i % 3 != 0);
    post.reported_value = static_cast<double>(i);
    posts.push_back(post);
  }
  return posts;
}

/// A server on an ephemeral TCP port for the test's lifetime (TCP rather
/// than a Unix path so parallel test shards never collide on a filename).
class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<BillboardServer>(
        net::Endpoint::parse("tcp:127.0.0.1:0"));
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  [[nodiscard]] const net::Endpoint& endpoint() const {
    return server_->endpoint();
  }

  std::unique_ptr<BillboardServer> server_;
};

using BillboardRemote = ServerFixture;

TEST_F(BillboardRemote, CommitReadAndQueryMatchInProcess) {
  InProcessBillboard local(8, 4);
  RemoteBillboard remote(endpoint(), 8, 4);
  EXPECT_EQ(remote.backend_name(), endpoint().to_string());

  for (Round round = 0; round < 5; ++round) {
    std::vector<Post> posts;
    for (std::size_t author = 0; author < 3; ++author) {
      posts.push_back(make_post(author + static_cast<std::size_t>(round) % 2,
                                round, (author + static_cast<std::size_t>(
                                                     round)) %
                                           4));
    }
    local.commit_round(round, posts);
    remote.commit_round(round, posts);
  }

  // The mirror is bit-identical to the in-process board.
  ASSERT_EQ(remote.size(), local.size());
  EXPECT_EQ(remote.board().posts(), local.board().posts());
  EXPECT_EQ(remote.last_committed_round(), local.last_committed_round());

  // snapshot() bypasses the mirror — it pins server log == in-process log.
  EXPECT_EQ(remote.snapshot(), local.snapshot());

  const bbwire::BoardStateMsg stat = remote.stat();
  EXPECT_EQ(stat.size, local.size());
  EXPECT_EQ(stat.last_round, local.last_committed_round());
}

TEST_F(BillboardRemote, ServerRejectionLeavesMirrorAndConnectionIntact) {
  RemoteBillboard remote(endpoint(), 4, 4);
  remote.commit_round(3, {make_post(0, 3, 1)});

  // Round must be strictly increasing on an authoritative board.
  try {
    remote.commit_round(3, {make_post(1, 3, 1)});
    FAIL() << "non-increasing round accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(contains(e.what(), "rejected the request"));
    EXPECT_TRUE(contains(e.what(), "round"));
  }
  // The mirror did not apply the rejected batch...
  EXPECT_EQ(remote.size(), 1u);
  // ...and the connection still works.
  remote.commit_round(4, {make_post(1, 4, 2)});
  EXPECT_EQ(remote.size(), 2u);
  EXPECT_EQ(remote.snapshot().size(), 2u);

  // A duplicate author inside one round is the other authoritative rule.
  try {
    remote.commit_round(5, {make_post(2, 5, 1), make_post(2, 5, 2)});
    FAIL() << "duplicate author accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(contains(e.what(), "rejected the request"));
  }
  EXPECT_EQ(remote.size(), 2u);
}

TEST_F(BillboardRemote, SharedBoardConvergesAcrossConnections) {
  RemoteBillboard writer_a(endpoint(), 8, 4, Billboard::Mode::kReplica,
                           "shared");
  RemoteBillboard writer_b(endpoint(), 8, 4, Billboard::Mode::kReplica,
                           "shared");

  writer_a.commit_round(0, {make_post(0, 0, 1)});
  writer_b.commit_round(0, {make_post(1, 0, 2)});
  writer_a.commit_round(1, {make_post(2, 1, 3)});

  // Each commit reply reports the shared size; the client pulls what the
  // other connection added. After one more commit from b, both mirrors
  // hold all four posts in server commit order.
  writer_b.commit_round(1, {make_post(3, 1, 0)});
  EXPECT_EQ(writer_b.size(), 4u);
  EXPECT_EQ(writer_b.snapshot(), writer_b.board().posts().to_vector());

  // a is behind until its next interaction; stat + snapshot see 4.
  EXPECT_EQ(writer_a.stat().size, 4u);
  const std::vector<Post> log = writer_a.snapshot();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].author, PlayerId{0});
  EXPECT_EQ(log[1].author, PlayerId{1});

  // A late joiner starts from the full shared history.
  RemoteBillboard reader(endpoint(), 8, 4, Billboard::Mode::kReplica,
                         "shared");
  EXPECT_EQ(reader.size(), 4u);
  EXPECT_EQ(reader.board().posts(), writer_b.board().posts());
  EXPECT_EQ(reader.snapshot(), writer_b.board().posts().to_vector());
}

TEST_F(BillboardRemote, PullsCrossASegmentBoundary) {
  // The server encodes each pull straight from its segmented log; these
  // pulls start in one segment and end in the next.
  constexpr std::size_t kSegment = PostLog::kSegmentPosts;
  const auto batch = [](std::size_t first, std::size_t count) {
    std::vector<Post> posts;
    for (std::size_t i = first; i < first + count; ++i) {
      Post post = make_post(i % 8, 0, i % 4, i % 3 == 0);
      post.reported_value = static_cast<double>(i);
      posts.push_back(post);
    }
    return posts;
  };
  RemoteBillboard writer(endpoint(), 8, 4, Billboard::Mode::kReplica,
                         "segments");
  writer.commit_round_from(0, batch(0, kSegment - 10));
  RemoteBillboard follower(endpoint(), 8, 4, Billboard::Mode::kReplica,
                           "segments");
  ASSERT_EQ(follower.size(), kSegment - 10);
  writer.commit_round_from(1, batch(kSegment - 10, 25));
  writer.commit_round_from(2, batch(kSegment + 15, 5));

  // A late joiner pulls [0, kSegment + 20) in one go.
  RemoteBillboard reader(endpoint(), 8, 4, Billboard::Mode::kReplica,
                         "segments");
  ASSERT_EQ(reader.size(), kSegment + 20);
  EXPECT_EQ(reader.board().posts(), writer.board().posts());
  // The follower's next commit pulls the tail [kSegment - 10, ...).
  follower.commit_round_from(3, batch(kSegment + 20, 1));
  writer.commit_round_from(3, {});
  ASSERT_EQ(follower.size(), kSegment + 21);
  EXPECT_EQ(follower.board().posts(), writer.board().posts());
  EXPECT_EQ(follower.snapshot(), writer.board().posts().to_vector());
}

TEST_F(BillboardRemote, SnapshotPastOneFrameMatchesWriter) {
  RemoteBillboard writer(endpoint(), kWideIds, kWideIds,
                         Billboard::Mode::kReplica);
  for (std::size_t batch = 0; batch < kWideBatches; ++batch) {
    writer.commit_round_from(kWideRound + static_cast<Round>(batch),
                             wide_batch(batch));
  }
  // The server answers the whole-log pull with one frame's worth; the
  // client asks again from where each reply ended.
  ASSERT_GT(writer.size(), bbwire::kMaxPostsPerFrame);
  EXPECT_EQ(writer.snapshot(), writer.board().posts().to_vector());
}

TEST_F(BillboardRemote, SharedBoardDimensionMismatchIsRejected) {
  RemoteBillboard first(endpoint(), 8, 4, Billboard::Mode::kReplica,
                        "dims");
  try {
    RemoteBillboard second(endpoint(), 8, 5, Billboard::Mode::kReplica,
                           "dims");
    FAIL() << "dimension mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(contains(e.what(), "dims"));
  }
}

TEST_F(BillboardRemote, ReserveIsFireAndForget) {
  RemoteBillboard remote(endpoint(), 4, 4);
  remote.reserve(1000);
  // The next request on the same stream works — the server consumed the
  // reserve without replying.
  remote.commit_round(0, {make_post(0, 0, 0)});
  EXPECT_EQ(remote.size(), 1u);
}

TEST(BillboardServerCore, MalformedPayloadKeepsConnection) {
  BillboardServerCore core;
  const std::uint64_t session = core.open_session();
  std::vector<std::uint8_t> out;

  std::vector<std::uint8_t> open;
  bbwire::encode_open(open, {0, 4, 4, ""});
  ASSERT_TRUE(core.on_bytes(session, open, out));

  // Each bad request gets exactly one kError naming the problem, and the
  // stream lives on. First a commit for round -1, then a frame of each
  // retired type 7-10 (the old window-count messages), with a payload
  // shaped like the old one.
  std::vector<std::pair<std::vector<std::uint8_t>, std::string>> bad;
  bad.emplace_back(std::vector<std::uint8_t>{}, "round");
  const Post post = make_post(0, -1, 0);
  bbwire::encode_commit(bad.back().first, -1, std::span<const Post>(&post, 1));
  for (std::uint8_t type = 7; type <= 10; ++type) {
    std::vector<std::uint8_t> frame;
    const std::size_t at = net::begin_frame(frame, type);
    net::put_varint(frame, 1);
    net::put_varint_signed(frame, 0);
    net::put_varint_signed(frame, 5);
    net::end_frame(frame, at);
    bad.emplace_back(std::move(frame), "type " + std::to_string(type));
  }
  std::uint64_t errors = 0;
  for (const auto& [frame, named] : bad) {
    out.clear();
    ASSERT_TRUE(core.on_bytes(session, frame, out));
    net::FrameAssembler assembler;
    assembler.append(out);
    const auto reply = assembler.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, static_cast<std::uint8_t>(bbwire::MsgType::kError));
    const bbwire::ErrorMsg error = bbwire::decode_error(reply->payload);
    EXPECT_TRUE(contains(error.message, named)) << error.message;
    EXPECT_FALSE(assembler.next().has_value()) << "more than one reply";
    EXPECT_EQ(core.stats().errors, ++errors);
  }

  // The same session still accepts a good commit.
  out.clear();
  std::vector<std::uint8_t> good_commit;
  const Post ok = make_post(0, 0, 0);
  bbwire::encode_commit(good_commit, 0, std::span<const Post>(&ok, 1));
  ASSERT_TRUE(core.on_bytes(session, good_commit, out));
  EXPECT_EQ(core.stats().commits, 1u);
  net::FrameAssembler assembler;
  assembler.append(out);
  const auto reply = assembler.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, static_cast<std::uint8_t>(bbwire::MsgType::kCommitOk));
  core.close_session(session);
}

TEST(BillboardServerCore, PullPastOneFrameAnswersWellFormedFrames) {
  BillboardServerCore core;
  const std::uint64_t session = core.open_session();
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> out;
  bbwire::encode_open(frame, {1, kWideIds, kWideIds, ""});
  ASSERT_TRUE(core.on_bytes(session, frame, out));
  for (std::size_t batch = 0; batch < kWideBatches; ++batch) {
    frame.clear();
    bbwire::encode_commit(frame, kWideRound + static_cast<Round>(batch),
                          wide_batch(batch));
    ASSERT_TRUE(core.on_bytes(session, frame, out));
  }
  ASSERT_EQ(core.stats().commits, kWideBatches);
  constexpr std::uint64_t kPosts = kWideBatches * kWideBatchPosts;

  // The whole log encodes past the frame limit, so the reply carries the
  // first kMaxPostsPerFrame posts in one well-formed kPosts frame.
  frame.clear();
  bbwire::encode_pull(frame, {0, kPosts});
  out.clear();
  ASSERT_TRUE(core.on_bytes(session, frame, out));
  net::FrameAssembler assembler;
  assembler.append(out);
  const auto reply = assembler.next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, static_cast<std::uint8_t>(bbwire::MsgType::kPosts));
  const bbwire::PostsMsg posts =
      bbwire::decode_posts(reply->payload, kWideIds, kWideIds);
  ASSERT_EQ(posts.posts.size(), bbwire::kMaxPostsPerFrame);
  EXPECT_EQ(posts.posts.front(), wide_batch(0).front());
  EXPECT_FALSE(assembler.next().has_value()) << "more than one reply";
  EXPECT_EQ(core.stats().errors, 0u);
  core.close_session(session);
}

TEST(BillboardServerCore, StreamDesyncClosesConnection) {
  BillboardServerCore core;
  const std::uint64_t session = core.open_session();
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF,
                                             0x00, 0x00, 0x00, 0x00};
  EXPECT_FALSE(core.on_bytes(session, garbage, out));
  // The final kError names the framing problem.
  net::FrameAssembler assembler;
  assembler.append(out);
  const auto reply = assembler.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, static_cast<std::uint8_t>(bbwire::MsgType::kError));
  EXPECT_TRUE(contains(bbwire::decode_error(reply->payload).message,
                       "not an acp.bbwire.v1 stream"));
  core.close_session(session);
}

TEST(BillboardServerCore, OpenBeyondTheIdRangeIsAnError) {
  // A board of 2^32 players (or objects) is refused at decode, before the
  // server sizes anything by it; the session can still open a real board.
  BillboardServerCore core;
  const std::uint64_t session = core.open_session();
  const std::uint64_t too_many = std::uint64_t{1} << 32;
  for (const bbwire::OpenMsg& open :
       {bbwire::OpenMsg{0, too_many, 4, ""},
        bbwire::OpenMsg{0, 4, too_many, "shared"}}) {
    std::vector<std::uint8_t> frame;
    bbwire::encode_open(frame, open);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(core.on_bytes(session, frame, out));
    net::FrameAssembler assembler;
    assembler.append(out);
    const auto reply = assembler.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, static_cast<std::uint8_t>(bbwire::MsgType::kError));
    EXPECT_TRUE(
        contains(bbwire::decode_error(reply->payload).message, "2^32"));
  }
  EXPECT_EQ(core.stats().boards, 0u);
  std::vector<std::uint8_t> frame;
  bbwire::encode_open(frame, {0, 4, 4, ""});
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(core.on_bytes(session, frame, out));
  EXPECT_EQ(core.stats().boards, 1u);
  core.close_session(session);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ACP_SANITIZER_SHADOW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ACP_SANITIZER_SHADOW 1
#endif
#endif

#ifndef ACP_SANITIZER_SHADOW
/// The type and error text of the one reply frame in `out` (empty text
/// for a non-error reply).
std::pair<bbwire::MsgType, std::string> only_reply(
    const std::vector<std::uint8_t>& out) {
  net::FrameAssembler assembler;
  assembler.append(out);
  const auto reply = assembler.next();
  if (!reply || assembler.next()) return {bbwire::MsgType{}, "not one frame"};
  const auto type = static_cast<bbwire::MsgType>(reply->type);
  if (type != bbwire::MsgType::kError) return {type, ""};
  return {type, bbwire::decode_error(reply->payload).message};
}

/// In a child with little address space left: boards of n = m = 2^28
/// open (their per-player state is sized on first commit), and the first
/// commit to each, through `on_bytes` and then through `apply_forwarded`,
/// cannot size its one-post-per-author check. Each failed commit is
/// followed by a request that must still be served. Exits 0 when every
/// step answered as expected.
[[noreturn]] void commit_too_large_then_small() {
  // Room for the small boards, far too little for 2^28 author slots.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  statm >> pages;
  rlimit lowered{};
  if (getrlimit(RLIMIT_AS, &lowered) != 0) std::_Exit(2);
  lowered.rlim_cur = std::min<rlim_t>(
      lowered.rlim_max, static_cast<rlim_t>(pages) *
                                static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                            (rlim_t{256} << 20));
  if (setrlimit(RLIMIT_AS, &lowered) != 0) std::_Exit(2);

  const std::uint64_t huge = std::uint64_t{1} << 28;
  BillboardServerCore core;
  const auto send = [&](std::uint64_t session, auto encode) {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> out;
    encode(frame);
    if (!core.on_bytes(session, frame, out)) std::_Exit(3);
    return only_reply(out);
  };
  const auto forward = [&](std::uint64_t token, auto encode) {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> out;
    encode(frame);
    net::FrameAssembler assembler;
    assembler.append(frame);
    const auto parsed = assembler.next();
    core.apply_forwarded(token, parsed->type, parsed->payload, out);
    return only_reply(out);
  };
  const auto open = [](bbwire::OpenMsg msg) {
    return [msg](std::vector<std::uint8_t>& frame) {
      bbwire::encode_open(frame, msg);
    };
  };
  const Post post = make_post(0, 0, 0);
  const auto commit = [&post](std::vector<std::uint8_t>& frame) {
    bbwire::encode_commit(frame, 0, std::span<const Post>(&post, 1));
  };
  const auto stat = [](std::vector<std::uint8_t>& frame) {
    bbwire::encode_stat(frame);
  };
  bool ok = true;
  const auto expect = [&](const auto& reply, bbwire::MsgType type) {
    ok = ok && reply.first == type;
  };
  const auto expect_out_of_memory = [&](const auto& reply) {
    ok = ok && reply.first == bbwire::MsgType::kError &&
         contains(reply.second, "out of memory");
  };
  const std::uint64_t session = core.open_session();
  expect(send(session, open({0, huge, huge, ""})), bbwire::MsgType::kOpenOk);
  expect_out_of_memory(send(session, commit));
  expect(send(session, stat), bbwire::MsgType::kStatOk);
  expect(forward(7, open({0, huge, huge, "big"})), bbwire::MsgType::kOpenOk);
  expect_out_of_memory(forward(7, commit));
  expect(forward(7, stat), bbwire::MsgType::kStatOk);
  ok = ok && core.stats().errors == 2 && core.stats().commits == 0;
  // A small board on a new session commits as usual.
  const std::uint64_t small = core.open_session();
  expect(send(small, open({0, 4, 4, ""})), bbwire::MsgType::kOpenOk);
  expect(send(small, commit), bbwire::MsgType::kCommitOk);
  ok = ok && core.stats().commits == 1 && core.stats().errors == 2;
  std::_Exit(ok ? 0 : 1);
}
#endif

TEST(BillboardServerCore, FailedAllocationAnswersErrorAndKeepsServing) {
#ifdef ACP_SANITIZER_SHADOW
  GTEST_SKIP() << "sanitizer shadow memory needs the address space that "
                  "this test takes away";
#else
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(commit_too_large_then_small(), testing::ExitedWithCode(0), "");
#endif
}

TEST(BillboardServerCore, RequestBeforeOpenIsAnError) {
  BillboardServerCore core;
  const std::uint64_t session = core.open_session();
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> stat;
  bbwire::encode_stat(stat);
  ASSERT_TRUE(core.on_bytes(session, stat, out));
  net::FrameAssembler assembler;
  assembler.append(out);
  const auto reply = assembler.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, static_cast<std::uint8_t>(bbwire::MsgType::kError));
  EXPECT_TRUE(
      contains(bbwire::decode_error(reply->payload).message, "open"));
  core.close_session(session);
}

}  // namespace
}  // namespace acp
