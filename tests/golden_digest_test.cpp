// Golden-digest suite: every case's trials must hash to the digest
// checked in at tests/golden_digests.txt. See golden_digest.hpp for what a
// digest covers and how to regenerate the table.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <ostream>
#include <set>
#include <string>

#include "golden_digest.hpp"

namespace acp::golden {

// Print a case as its name, so test names stay stable across builds.
void PrintTo(const GoldenCase& golden, std::ostream* os) { *os << golden.name; }

namespace {

const std::map<std::string, std::uint64_t>& table() {
  static const std::map<std::string, std::uint64_t> parsed = [] {
    std::ifstream file(ACP_GOLDEN_TABLE);
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    return parse_table(text);
  }();
  return parsed;
}

class GoldenDigest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigest, MatchesCheckedInTable) {
  const GoldenCase& golden = GetParam();
  const auto entry = table().find(golden.name);
  ASSERT_NE(entry, table().end())
      << "no golden digest for '" << golden.name
      << "'; regenerate with: build/tests/golden_digests > "
         "tests/golden_digests.txt";
  EXPECT_EQ(format_digest(case_digest(golden)),
            format_digest(entry->second))
      << "results of '" << golden.name << "' moved";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GoldenDigest, testing::ValuesIn(golden_cases()),
    [](const testing::TestParamInfo<GoldenCase>& param) {
      return param.param.name;
    });

TEST(GoldenTable, NamesExactlyTheCases) {
  std::set<std::string> names;
  for (const GoldenCase& golden : golden_cases()) {
    EXPECT_TRUE(names.insert(golden.name).second)
        << "duplicate case " << golden.name;
  }
  for (const auto& [name, digest] : table()) {
    EXPECT_TRUE(names.count(name) == 1) << "stale table entry " << name;
  }
  EXPECT_EQ(table().size(), names.size());
}

}  // namespace
}  // namespace acp::golden
