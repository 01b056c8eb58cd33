// Prints the golden-digest table for every case in golden_cases():
//   build/tests/golden_digests > tests/golden_digests.txt
#include <iostream>

#include "golden_digest.hpp"

int main() {
  std::cout << "# Golden digests (tests/golden_digest.hpp). Regenerate with\n"
               "#   build/tests/golden_digests > tests/golden_digests.txt\n";
  for (const acp::golden::GoldenCase& golden : acp::golden::golden_cases()) {
    std::cout << golden.name << ' '
              << acp::golden::format_digest(
                     acp::golden::case_digest(golden))
              << '\n';
  }
  return 0;
}
