// The sharded multi-threaded billboard server: board-owner placement,
// the cross-worker forward seam (direct cores and live servers), late
// joiners on forwarded boards, abrupt-close survival, and commit
// pipelining FIFO semantics.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "acp/billboard/remote.hpp"
#include "acp/billboard/server.hpp"
#include "acp/billboard/server_core.hpp"
#include "acp/net/frame.hpp"
#include "acp/net/socket.hpp"

namespace acp {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Post make_post(std::size_t author, Round round, std::size_t object) {
  Post post;
  post.author = PlayerId{author};
  post.round = round;
  post.object = ObjectId{object};
  post.reported_value = 1.0;
  post.positive = true;
  return post;
}

/// First generated board name owned by `worker` under the geometry.
std::string board_owned_by(std::size_t worker, std::size_t workers,
                           std::size_t shards) {
  for (int i = 0;; ++i) {
    std::string name = "shardboard-" + std::to_string(i);
    if (BillboardServerCore::owner_shard(name, shards) % workers == worker) {
      return name;
    }
  }
}

/// Parse exactly one frame out of `bytes` (copying the payload so the
/// caller can let the assembler go).
struct OwnedFrame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

std::vector<OwnedFrame> parse_frames(std::span<const std::uint8_t> bytes) {
  net::FrameAssembler assembler;
  assembler.append(bytes);
  std::vector<OwnedFrame> frames;
  while (std::optional<net::Frame> frame = assembler.next()) {
    frames.push_back(OwnedFrame{
        frame->type,
        {frame->payload.begin(), frame->payload.end()}});
  }
  return frames;
}

TEST(BillboardSharded, OwnerShardIsDeterministicAndSpreads) {
  // Deterministic across calls (tests and benches pick names with it).
  EXPECT_EQ(BillboardServerCore::owner_shard("bbload", 8),
            BillboardServerCore::owner_shard("bbload", 8));
  // A modest name population hits every bucket of a small shard count.
  std::set<std::size_t> buckets;
  for (int i = 0; i < 256; ++i) {
    buckets.insert(
        BillboardServerCore::owner_shard("name-" + std::to_string(i), 8));
  }
  EXPECT_EQ(buckets.size(), 8u);
  // owner_worker folds buckets onto workers.
  const BillboardServerCore core(1, 2, 8);
  const std::string mine = board_owned_by(1, 2, 8);
  EXPECT_EQ(core.owner_worker(mine), 1u);
}

// The forward seam, exercised without any threads or sockets: a home
// core that does not own the board hands every frame of the session to
// the ForwardFn, and the owning core's apply_forwarded produces exactly
// the replies the local path would.
TEST(BillboardSharded, ForwardSeamRoutesWholeSessionToOwnerCore) {
  BillboardServerCore home(0, 2, 4);
  BillboardServerCore owner(1, 2, 4);
  const std::string board = board_owned_by(1, 2, 4);

  struct Captured {
    std::size_t worker;
    std::uint64_t session;
    std::uint8_t type;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Captured> mailbox;
  const BillboardServerCore::ForwardFn forward =
      [&](std::size_t worker, std::uint64_t session, std::uint8_t type,
          std::span<const std::uint8_t> payload) {
        mailbox.push_back(
            Captured{worker, session, type, {payload.begin(), payload.end()}});
      };

  const std::uint64_t session = home.open_session();
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> out;

  bbwire::OpenMsg open;
  open.mode = 1;  // replica
  open.num_players = 4;
  open.num_objects = 4;
  open.board = board;
  bbwire::encode_open(frame, open);
  ASSERT_TRUE(home.on_bytes(session, frame, out, forward));
  EXPECT_TRUE(out.empty()) << "open of a remote board must not reply locally";
  ASSERT_EQ(mailbox.size(), 1u);
  EXPECT_EQ(mailbox[0].worker, 1u);
  EXPECT_EQ(home.stats().forwarded, 1u);

  // Owner applies the open and replies kOpenOk through the mailbox.
  const std::uint64_t token = mailbox[0].session;  // test's token scheme
  std::vector<std::uint8_t> reply;
  owner.apply_forwarded(token, mailbox[0].type, mailbox[0].payload, reply);
  auto frames = parse_frames(reply);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type,
            static_cast<std::uint8_t>(bbwire::MsgType::kOpenOk));
  EXPECT_EQ(owner.stats().boards, 1u);

  // Every later frame of the session forwards too — commit, then pull.
  frame.clear();
  const std::vector<Post> posts = {make_post(0, 1, 2), make_post(1, 1, 2)};
  bbwire::encode_commit(frame, 1, posts);
  ASSERT_TRUE(home.on_bytes(session, frame, out, forward));
  EXPECT_TRUE(out.empty());
  ASSERT_EQ(mailbox.size(), 2u);
  reply.clear();
  owner.apply_forwarded(token, mailbox[1].type, mailbox[1].payload, reply);
  frames = parse_frames(reply);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type,
            static_cast<std::uint8_t>(bbwire::MsgType::kCommitOk));
  const bbwire::BoardStateMsg state = bbwire::decode_board_state(
      frames[0].payload, bbwire::MsgType::kCommitOk);
  EXPECT_EQ(state.size, 2u);
  EXPECT_EQ(owner.stats().posts, 2u);

  frame.clear();
  bbwire::encode_pull(frame, {0, 5});
  ASSERT_TRUE(home.on_bytes(session, frame, out, forward));
  ASSERT_EQ(mailbox.size(), 3u);
  reply.clear();
  owner.apply_forwarded(token, mailbox[2].type, mailbox[2].payload, reply);
  frames = parse_frames(reply);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, static_cast<std::uint8_t>(bbwire::MsgType::kPosts));
  EXPECT_EQ(bbwire::decode_posts(frames[0].payload, 4, 4).posts, posts);

  // Close: the home core names the owner to notify, the owner drops the
  // binding, and a stale token afterwards answers like an unopened
  // session (not a crash).
  const std::optional<std::size_t> notify = home.close_session(session);
  ASSERT_TRUE(notify.has_value());
  EXPECT_EQ(*notify, 1u);
  owner.close_forwarded(token);
  reply.clear();
  owner.apply_forwarded(token, mailbox[2].type, mailbox[2].payload, reply);
  frames = parse_frames(reply);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type,
            static_cast<std::uint8_t>(bbwire::MsgType::kError));
}

class ShardedServer : public ::testing::Test {
 protected:
  void start(std::size_t io_threads, std::size_t shards) {
    BillboardServer::Options options;
    options.io_threads = io_threads;
    options.shards = shards;
    server_ = std::make_unique<BillboardServer>(
        net::Endpoint::parse("tcp:127.0.0.1:0"), options);
    server_->start();
  }
  void TearDown() override {
    if (server_) {
      server_->stop();
    }
  }
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return server_->endpoint();
  }

  std::unique_ptr<BillboardServer> server_;
};

// The same single-writer workload against a 1-thread server and a
// 3-thread/8-shard server produces bit-identical board logs — cross-
// shard forwarding is invisible to clients.
TEST_F(ShardedServer, CrossShardForwardingMatchesSingleThread) {
  start(3, 8);
  BillboardServer single(net::Endpoint::parse("tcp:127.0.0.1:0"));
  single.start();

  // Connection #i lands on home worker i (round-robin accept), so give it
  // a board owned by worker (i + 1) % 3: every session here exercises the
  // forward seam, never the local fast path.
  std::vector<std::string> boards;
  for (std::size_t i = 0; i < 3; ++i) {
    boards.push_back(board_owned_by((i + 1) % 3, 3, 8));
  }
  for (const std::string& board : boards) {
    RemoteBillboard sharded_client(endpoint(), 6, 4, Billboard::Mode::kReplica,
                                   board);
    RemoteBillboard single_client(single.endpoint(), 6, 4,
                                  Billboard::Mode::kReplica, board);
    for (Round round = 0; round < 6; ++round) {
      std::vector<Post> posts;
      for (std::size_t author = 0; author < 3; ++author) {
        posts.push_back(make_post(author, round,
                                  (author + static_cast<std::size_t>(round)) %
                                      4));
      }
      sharded_client.commit_round(round, posts);
      single_client.commit_round(round, posts);
    }
    EXPECT_EQ(sharded_client.snapshot(), single_client.snapshot())
        << "board " << board;
    EXPECT_EQ(sharded_client.snapshot(),
              single_client.board().posts().to_vector())
        << "board " << board;
  }
  const auto stats = server_->stats();
  EXPECT_GT(stats.forwarded, 0u) << "workload never crossed a shard";
  single.stop();
}

// Two boards owned by different workers, each hammered by two client
// threads at once: commits interleave per board but every connection
// converges to the same server log.
TEST_F(ShardedServer, TwoBoardsOnDifferentShardsConcurrently) {
  start(2, 8);
  const std::string board0 = board_owned_by(0, 2, 8);
  const std::string board1 = board_owned_by(1, 2, 8);
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kPostsPerRound = 4;

  // Construct on the main thread (registry access), drive from workers.
  std::vector<std::unique_ptr<RemoteBillboard>> writers;
  for (std::size_t w = 0; w < 2 * kWriters; ++w) {
    writers.push_back(std::make_unique<RemoteBillboard>(
        endpoint(), 16, 8, Billboard::Mode::kReplica,
        w < kWriters ? board0 : board1));
  }
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < writers.size(); ++w) {
    threads.emplace_back([&, w] {
      for (Round round = 0; round < static_cast<Round>(kRounds); ++round) {
        std::vector<Post> posts;
        for (std::size_t p = 0; p < kPostsPerRound; ++p) {
          posts.push_back(make_post((w * kPostsPerRound + p) % 16, round,
                                    (w + p) % 8));
        }
        writers[w]->commit_round(round, posts);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const std::uint64_t per_board = kWriters * kRounds * kPostsPerRound;
  for (const std::string& board : {board0, board1}) {
    RemoteBillboard a(endpoint(), 16, 8, Billboard::Mode::kReplica, board);
    RemoteBillboard b(endpoint(), 16, 8, Billboard::Mode::kReplica, board);
    EXPECT_EQ(a.size(), per_board) << board;
    EXPECT_EQ(a.snapshot(), b.snapshot()) << board;
    EXPECT_EQ(a.board().posts(), b.board().posts()) << board;
  }
  EXPECT_EQ(server_->stats().posts, 2 * per_board);
}

// A client that joins a forwarded board late sees the full history at
// open (the open-time pull), then tracks new commits.
TEST_F(ShardedServer, LateJoinerOnForwardedBoardSeesHistory) {
  start(2, 8);
  // Owned by worker 1: roughly half the accepted connections reach it
  // through the mailbox path.
  const std::string board = board_owned_by(1, 2, 8);
  RemoteBillboard writer(endpoint(), 8, 4, Billboard::Mode::kReplica, board);
  for (Round round = 0; round < 10; ++round) {
    writer.commit_round(round,
                        {make_post(0, round, 0), make_post(1, round, 1)});
  }
  ASSERT_EQ(writer.size(), 20u);

  RemoteBillboard late(endpoint(), 8, 4, Billboard::Mode::kReplica, board);
  EXPECT_EQ(late.size(), 20u);
  EXPECT_EQ(late.board().posts(), writer.board().posts());

  // New posts land for the late joiner too (catch-up on its next commit).
  writer.commit_round(10, {make_post(2, 10, 2)});
  late.commit_round(11, {make_post(3, 11, 3)});
  EXPECT_EQ(late.size(), 22u);
  EXPECT_EQ(late.snapshot(), writer.snapshot());
}

// Clients that vanish mid-conversation — after a request, mid-frame, or
// with replies still queued — must not take the daemon down (SIGPIPE /
// ECONNRESET on the write path) or wedge the board for others.
TEST_F(ShardedServer, AbruptlyClosedConnectionsDoNotKillTheServer) {
  start(2, 8);
  const std::string board = board_owned_by(1, 2, 8);

  bbwire::OpenMsg open;
  open.mode = 1;
  open.num_players = 8;
  open.num_objects = 4;
  open.board = board;

  for (int i = 0; i < 10; ++i) {
    // Full requests, then hang up without reading a single reply byte:
    // the server's replies hit a dead peer.
    net::FdHandle fd = net::connect_endpoint(endpoint());
    std::vector<std::uint8_t> bytes;
    bbwire::encode_open(bytes, open);
    const std::vector<Post> posts = {make_post(0, 1, 1)};
    bbwire::encode_commit(bytes, 1, posts);
    net::send_all(fd.get(), bytes);
    fd.reset();  // abrupt close

    // Half a frame, then hang up: the server must discard the partial.
    net::FdHandle half = net::connect_endpoint(endpoint());
    net::send_all(half.get(),
                  std::span<const std::uint8_t>(bytes.data(), 5));
    half.reset();
  }

  // The server is still alive and the board still serves new clients.
  RemoteBillboard survivor(endpoint(), 8, 4, Billboard::Mode::kReplica,
                           board);
  survivor.commit_round(100, {make_post(2, 100, 2)});
  EXPECT_GE(survivor.size(), 1u);
  EXPECT_GT(server_->stats().sessions_opened, 20u);
}

// Pipelined private-board commits produce the same mirror and the same
// server answers as single-inflight — acks match FIFO.
TEST_F(ShardedServer, PipelinedCommitsMatchSingleInflight) {
  start(2, 8);
  RemoteBillboard single(endpoint(), 8, 4);
  RemoteBillboard pipelined(endpoint(), 8, 4, Billboard::Mode::kAuthoritative,
                            "", 8);
  EXPECT_EQ(single.pipeline(), 1u);
  EXPECT_EQ(pipelined.pipeline(), 8u);

  for (Round round = 0; round < 20; ++round) {
    std::vector<Post> posts;
    for (std::size_t author = 0; author < 3; ++author) {
      posts.push_back(make_post(author, round,
                                (author + static_cast<std::size_t>(round)) %
                                    4));
    }
    single.commit_round(round, posts);
    pipelined.commit_round(round, posts);
  }
  EXPECT_EQ(pipelined.board().posts(), single.board().posts());
  // snapshot() drains the in-flight window before it pulls.
  EXPECT_EQ(pipelined.snapshot(), single.snapshot());

  // A shared named board must clamp to depth 1: its ack bookkeeping
  // drives the pull-tail catch-up.
  RemoteBillboard shared(endpoint(), 8, 4, Billboard::Mode::kReplica,
                         "clamped", 8);
  EXPECT_EQ(shared.pipeline(), 1u);
}

// A server that rejects a pipelined commit surfaces the error on a later
// drain — and the FIFO ack matching attributes it correctly. The "server"
// here is hand-rolled over a socketpair so it can reject a commit the
// client-side mirror considers valid (a genuinely divergent server).
TEST(BillboardShardedPipeline, RejectionSurfacesOnLaterDrain) {
  auto [client_end, server_end] = net::stream_pair();
  const int server_fd = server_end.get();

  std::thread fake_server([server_fd] {
    net::FrameAssembler assembler;
    std::vector<std::uint8_t> buffer(4096);
    std::vector<std::uint8_t> reply;
    int commits_seen = 0;
    for (;;) {
      std::optional<net::Frame> frame = assembler.next();
      if (!frame) {
        const std::size_t got = net::recv_some(
            server_fd, std::span<std::uint8_t>(buffer.data(), buffer.size()));
        if (got == 0) {
          return;
        }
        assembler.append(
            std::span<const std::uint8_t>(buffer.data(), got));
        continue;
      }
      reply.clear();
      const auto type = static_cast<bbwire::MsgType>(frame->type);
      if (type == bbwire::MsgType::kOpen) {
        bbwire::BoardStateMsg state;
        bbwire::encode_board_state(reply, bbwire::MsgType::kOpenOk, state);
      } else if (type == bbwire::MsgType::kCommit) {
        ++commits_seen;
        if (commits_seen == 1) {
          bbwire::BoardStateMsg state;
          state.size = 1;
          state.last_round = 1;
          bbwire::encode_board_state(reply, bbwire::MsgType::kCommitOk,
                                     state);
        } else {
          bbwire::encode_error(reply, "synthetic divergence");
        }
      } else {
        return;
      }
      net::send_all(server_fd, reply);
    }
  });

  {
    RemoteBillboard remote(std::move(client_end), 4, 4,
                           Billboard::Mode::kAuthoritative, "", 4);
    // Window of 4: neither commit blocks, both are optimistically
    // mirrored, and no exception fires yet.
    remote.commit_round(1, {make_post(0, 1, 0)});
    remote.commit_round(2, {make_post(1, 2, 1)});
    EXPECT_EQ(remote.size(), 2u);
    // The snapshot forces the drain: ack #1 passes, ack #2 is the
    // rejection.
    try {
      (void)remote.snapshot();
      FAIL() << "synthetic rejection never surfaced";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(contains(e.what(), "synthetic divergence")) << e.what();
    }
  }
  fake_server.join();
}

}  // namespace
}  // namespace acp
