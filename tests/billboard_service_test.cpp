// BillboardService semantics: the InProcessBillboard adapter, the backend
// spec parser, and the factory.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acp/billboard/service.hpp"

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

TEST(BillboardServiceTest, InProcessCommitAndRead) {
  InProcessBillboard service(8, 4);
  EXPECT_EQ(service.num_players(), 8u);
  EXPECT_EQ(service.num_objects(), 4u);
  EXPECT_EQ(service.size(), 0u);
  EXPECT_EQ(service.last_committed_round(), -1);
  EXPECT_EQ(service.backend_name(), "inproc");

  service.commit_round(0, {make_post(0, 0, 1), make_post(1, 0, 2)});
  const std::vector<Post> batch = {make_post(2, 3, 1)};
  service.commit_round_from(3, batch);

  EXPECT_EQ(service.size(), 3u);
  EXPECT_EQ(service.last_committed_round(), 3);
  EXPECT_EQ(service.board().posts()[2].author, PlayerId{2});

  const std::vector<Post> log = service.snapshot();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], make_post(0, 0, 1));
  EXPECT_EQ(log[2], make_post(2, 3, 1));
}

TEST(BillboardServiceTest, WindowQueriesUseFirstPositivePolicy) {
  InProcessBillboard service(8, 4);
  // Author 0 votes for object 1 twice — kFirstPositive counts it once.
  service.commit_round(0, {make_post(0, 0, 1)});
  service.commit_round(1, {make_post(0, 1, 1), make_post(1, 1, 1),
                           make_post(2, 1, 3, /*positive=*/false)});

  EXPECT_EQ(service.votes_in_window(ObjectId{1}, 0, 2), 2);
  EXPECT_EQ(service.votes_in_window(ObjectId{1}, 1, 2), 1);
  EXPECT_EQ(service.votes_in_window(ObjectId{3}, 0, 2), 0);  // negative vote

  // Each call counts the board as it stands, later commits included.
  service.commit_round(2, {make_post(3, 2, 1)});
  EXPECT_EQ(service.votes_in_window(ObjectId{1}, 0, 3), 3);

  std::vector<Count> counts;
  const std::vector<ObjectId> objects = {ObjectId{0}, ObjectId{1},
                                         ObjectId{3}};
  service.votes_in_window_batch(objects, 0, 3, counts);
  EXPECT_EQ(counts, (std::vector<Count>{0, 3, 0}));
}

TEST(BillboardServiceTest, ReplicaModeAcceptsOutOfOrderStamps) {
  InProcessBillboard service(8, 4, Billboard::Mode::kReplica);
  service.reserve(16);
  // Arrival round 5 carrying posts stamped 1 and 4 — the replica path.
  service.commit_round(5, {make_post(0, 1, 1), make_post(1, 4, 2)});
  EXPECT_EQ(service.size(), 2u);
  EXPECT_EQ(service.votes_in_window(ObjectId{1}, 0, 2), 1);
}

TEST(BillboardBackendSpecTest, ParsesKnownForms) {
  const auto inproc = BillboardBackendSpec::parse("inproc");
  EXPECT_TRUE(inproc.in_process);
  EXPECT_EQ(inproc.to_string(), "inproc");

  const auto unix_spec = BillboardBackendSpec::parse("socket:/tmp/bb.sock");
  EXPECT_FALSE(unix_spec.in_process);
  EXPECT_EQ(unix_spec.endpoint.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_spec.endpoint.path, "/tmp/bb.sock");
  EXPECT_EQ(unix_spec.to_string(), "socket:/tmp/bb.sock");

  const auto tcp_spec = BillboardBackendSpec::parse("tcp:127.0.0.1:7117");
  EXPECT_FALSE(tcp_spec.in_process);
  EXPECT_EQ(tcp_spec.endpoint.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_spec.endpoint.port, 7117);
  EXPECT_EQ(tcp_spec.to_string(), "tcp:127.0.0.1:7117");
}

TEST(BillboardBackendSpecTest, RejectsMalformedValues) {
  for (const char* bad : {"", "sock:/tmp/x", "tcp:localhost", "tcp::",
                          "tcp:127.0.0.1:notaport", "tcp:127.0.0.1:99999"}) {
    try {
      (void)BillboardBackendSpec::parse(bad);
      FAIL() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      // The message names the accepted forms so a scenario typo is
      // self-explaining.
      EXPECT_TRUE(contains(e.what(), "socket:<path>") ||
                  contains(e.what(), "tcp:"))
          << bad << " -> " << e.what();
    }
  }
}

TEST(BillboardServiceFactoryTest, InprocSpecBuildsInProcessBackend) {
  const auto service =
      make_billboard_service(BillboardBackendSpec{}, 4, 4);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->backend_name(), "inproc");
  EXPECT_EQ(service->num_players(), 4u);
}

TEST(BillboardServiceFactoryTest, RemoteSpecFailsFastWithoutServer) {
  BillboardBackendSpec spec;
  spec.in_process = false;
  spec.endpoint =
      net::Endpoint::parse("socket:/tmp/acp-bb-no-such-server.sock");
  EXPECT_THROW((void)make_billboard_service(spec, 4, 4), net::SocketError);
}

}  // namespace
}  // namespace acp
