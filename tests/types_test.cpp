#include "acp/util/types.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "acp/util/contracts.hpp"

namespace acp {
namespace {

TEST(StrongId, ValueRoundTrips) {
  const PlayerId p{42};
  EXPECT_EQ(p.value(), 42u);
}

TEST(StrongId, Comparisons) {
  const ObjectId a{1};
  const ObjectId b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, ObjectId{1});
}

TEST(StrongId, DefaultIsSentinel) {
  const PlayerId p;
  EXPECT_NE(p, PlayerId{0});
}

TEST(StrongId, ValueMustFitIn32Bits) {
  EXPECT_EQ(ObjectId{kMaxIdCount}.value(), kMaxIdCount);
  EXPECT_THROW(PlayerId{kMaxIdCount + 1}, ContractViolation);
  EXPECT_THROW(ObjectId{std::size_t{1} << 40}, ContractViolation);
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<PlayerId, ObjectId>);
  SUCCEED();
}

TEST(StrongId, Hashable) {
  std::unordered_set<PlayerId> set;
  set.insert(PlayerId{1});
  set.insert(PlayerId{2});
  set.insert(PlayerId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StreamOutputPlayer) {
  std::ostringstream os;
  os << PlayerId{7};
  EXPECT_EQ(os.str(), "player#7");
}

TEST(StrongId, StreamOutputObject) {
  std::ostringstream os;
  os << ObjectId{9};
  EXPECT_EQ(os.str(), "object#9");
}

TEST(StrongId, Ordering) {
  EXPECT_LE(ObjectId{3}, ObjectId{3});
  EXPECT_GT(ObjectId{4}, ObjectId{3});
}

}  // namespace
}  // namespace acp
