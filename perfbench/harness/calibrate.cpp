#include "calibrate.hpp"

#include <algorithm>
#include <ctime>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/wallclock.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kInputs = 64;
// 65536 gates: 1.5 MiB of network and 0.5 MiB of values, so the reference,
// like the program's jobs, misses the first two cache levels.
constexpr std::uint32_t kGates = 65536;
constexpr int kSweeps = 4;

struct Gate {
  std::uint8_t op;
  std::uint32_t a, b;
};

std::vector<Gate> make_network() {
  std::vector<Gate> net(kGates);
  std::uint64_t x = 0x243F6A8885A308D3ull;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return std::uint32_t(x >> 33);
  };
  for (std::uint32_t g = 0; g < kGates; ++g) {
    const std::uint32_t below = kInputs + g;  // inputs and earlier gates
    net[g] = {std::uint8_t(next() % 4), next() % below, next() % below};
  }
  return net;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

}  // namespace

ReferenceRun reference_run() {
  static const std::vector<Gate> net = make_network();
  thread_local std::vector<std::uint64_t> v(kInputs + kGates);
  const auto t0 = bist::WallClock::now();
  const double cpu0 = thread_cpu_s();
  std::uint64_t x = 0x13198A2E03707344ull;
  for (int s = 0; s < kSweeps; ++s) {
    for (std::uint32_t i = 0; i < kInputs; ++i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      v[i] = x;
    }
    for (std::uint32_t g = 0; g < kGates; ++g) {
      const Gate& gate = net[g];
      const std::uint64_t a = v[gate.a], b = v[gate.b];
      std::uint64_t r;
      switch (gate.op) {
        case 0: r = a & b; break;
        case 1: r = a | b; break;
        case 2: r = a ^ b; break;
        default: r = ~(a & b); break;
      }
      v[kInputs + g] = r;
    }
  }
  // The values live on in a thread-local buffer, so the work is not dead.
  return {bist::seconds_since(t0), thread_cpu_s() - cpu0};
}

double speed_factor(std::vector<double> reference_samples) {
  if (reference_samples.empty()) return 1;
  const auto mid = reference_samples.begin() + reference_samples.size() / 2;
  std::nth_element(reference_samples.begin(), mid, reference_samples.end());
  return kReferenceNominalS / *mid;
}

double measure_speed(unsigned threads, int runs) {
  std::mutex mu;
  std::vector<double> wall;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (int r = 0; r < runs; ++r) {
        const double s = reference_run().wall_s;
        std::lock_guard<std::mutex> lock(mu);
        wall.push_back(s);
      }
    });
  for (std::thread& t : pool) t.join();
  return speed_factor(std::move(wall));
}

}  // namespace perfbench
