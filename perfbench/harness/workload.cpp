#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "circuits/iscas85_family.hpp"
#include "netlist/bench_io.hpp"
#include "store/serialize.hpp"
#include "util/hash.hpp"
#include "util/wallclock.hpp"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<WorkloadConfig>& workloads() {
  // Shapes, limits and rates: see perfbench/README.md for why each exists.
  static const std::vector<WorkloadConfig> kAll = {
      {"cold-audit", "c880s", true, 100, 2048, false, 0, 48},
      {"cold-podem", "c1355s", false, 50, 4096, false, 0, 96},
      {"warm-serve", "c1355s", false, 10, 4096, true, 40, 64},
  };
  return kAll;
}

const WorkloadConfig* find_workload(std::string_view name) {
  for (const WorkloadConfig& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

bist::JobSpec make_spec(const WorkloadConfig& w, std::uint64_t seed,
                        std::size_t i) {
  const std::optional<bist::SurrogateSpec> base = bist::find_spec(w.shape);
  if (!base) throw std::runtime_error("unknown surrogate shape " + w.shape);
  bist::Hasher h;
  h.str(w.name);
  const std::uint64_t stream = splitmix64(h.digest().lo ^ splitmix64(seed));

  bist::SurrogateSpec sp = *base;
  sp.seed = splitmix64(stream + i);
  bist::JobSpec spec;
  spec.name = w.shape + "-" + std::to_string(i);
  spec.bench_text = bist::write_bench(bist::make_surrogate(sp));
  for (const double f : {0.125, 0.25, 0.375, 0.5, 0.75, 1.0})
    spec.sweep_lengths.push_back(static_cast<std::size_t>(double(w.patterns) * f));
  spec.tpg.lfsr_patterns = w.patterns;
  spec.tpg.podem.backtrack_limit = w.backtracks;
  spec.tpg.podem_threads = 1;
  spec.tpg.fsim.threads = 1;
  spec.tpg.compress = w.compress;
  spec.schedule.lfsr_degree = spec.tpg.lfsr_degree;
  spec.schedule.lfsr_seed = spec.tpg.lfsr_seed;
  return spec;
}

std::vector<bist::JobSpec> make_specs(const WorkloadConfig& w,
                                      std::uint64_t seed, std::size_t count) {
  std::vector<bist::JobSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) specs.push_back(make_spec(w, seed, i));
  return specs;
}

JobSummary summarize(const bist::JobReport& r) {
  JobSummary s;
  s.ok = r.status.ok() && r.wrapper_ok &&
         r.verification.aliasing.escapes == 0;
  s.area_bits = r.plan.area.area_bits();
  s.test_cycles = r.plan.test_time;
  s.coverage = r.plan.final_coverage;
  return s;
}

std::vector<std::uint8_t> stripped_bytes(bist::JobReport r) {
  bist::strip_volatile(r);
  return bist::serialize_job_report(r);
}

LoopResult closed_loop(unsigned workers, std::size_t first, std::size_t end,
                       double seconds,
                       const std::function<void(std::size_t)>& job) {
  const auto t0 = bist::WallClock::now();
  std::atomic<std::size_t> next{first};
  std::vector<std::vector<JobTiming>> per(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    threads.emplace_back([&, w] {
      for (;;) {
        if (seconds > 0 && bist::seconds_since(t0) >= seconds) return;
        const std::size_t i = next.fetch_add(1);
        if (i >= end) return;
        JobTiming t;
        t.index = i;
        t.start_s = bist::seconds_since(t0);
        job(i);
        t.end_s = bist::seconds_since(t0);
        per[w].push_back(t);
      }
    });
  for (std::thread& t : threads) t.join();

  LoopResult r;
  for (const std::vector<JobTiming>& v : per)
    r.jobs.insert(r.jobs.end(), v.begin(), v.end());
  std::sort(r.jobs.begin(), r.jobs.end(),
            [](const JobTiming& a, const JobTiming& b) {
              return a.index < b.index;
            });
  return r;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double tail_percentile(std::size_t samples) {
  for (int p = 95; p > 50; p -= 5)
    if (double(samples) * (100 - p) / 100 >= 10) return p;
  return 50;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
         double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
