#include "fingerprint.hpp"

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr std::uint64_t kSpinIterations = 40'000'000;

/// A dependent xorshift chain the compiler cannot fold or vectorize.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t state) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
  }
  return state;
}

/// M iterations per second of one spin probe.
double spin_rate(std::uint64_t seed) {
  const auto start = Clock::now();
  volatile std::uint64_t sink = spin(kSpinIterations, seed | 1);
  (void)sink;
  return static_cast<double>(kSpinIterations) / seconds_since(start) * 1e-6;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::size_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

Fingerprint measure_fingerprint() {
  Fingerprint fp;
  fp.cpu_model = cpu_model();
  fp.nproc = allowed_cpus();
  fp.compiler = __VERSION__;
  fp.build_type = PERFBENCH_BUILD_TYPE;

  std::vector<double> single;
  for (std::uint64_t i = 0; i < 5; ++i) single.push_back(spin_rate(i + 1));
  fp.spin_mips = median(single);

  std::vector<double> rates(fp.nproc, 0.0);
  {
    // Release every probe at once so their spins overlap.
    std::atomic<bool> go{false};
    std::vector<std::thread> probes;
    for (std::size_t t = 0; t < fp.nproc; ++t) {
      probes.emplace_back([&rates, &go, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        rates[t] = spin_rate(t + 7);
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& probe : probes) probe.join();
  }
  double total = 0.0;
  for (double rate : rates) total += rate;
  fp.effective_parallelism = fp.spin_mips > 0.0 ? total / fp.spin_mips : 0.0;
  return fp;
}

std::string Fingerprint::to_json() const {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(cpu_model)
     << "\", \"nproc\": " << nproc << ", \"compiler\": \""
     << json_escape(compiler) << "\", \"build_type\": \""
     << json_escape(build_type) << "\", \"spin_mips\": " << spin_mips
     << ", \"effective_parallelism\": " << effective_parallelism << "}";
  return os.str();
}

}  // namespace perfbench
