#pragma once
// Workload definitions, seeded input generation, job checks and the
// closed-loop runner shared by the timed and traced phases.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/job.hpp"

namespace perfbench {

/// One benchmark workload.  Every job of a workload has the same surrogate
/// shape, pattern count, backtrack limit and architecture, so job costs are
/// homogeneous and a run's median does not jump between cost clusters.
struct WorkloadConfig {
  std::string name;
  std::string shape;        ///< iscas85 surrogate spec the circuits follow
  bool compress = true;     ///< tpg.compress (false = decoded ROM path)
  std::uint32_t backtracks = 100;
  std::size_t patterns = 4096;  ///< longest LFSR length of the sweep
  bool open_loop = false;   ///< JobService at a fixed rate, else closed loop
  double rate_per_s = 0;    ///< open-loop arrival rate
  /// The run's distinct circuits, generated from the seed at set-up.  Closed
  /// loops pass over them repeatedly, each pass with a fresh store; the open
  /// loop warms them into the store and cycles over them.  The simulated sums
  /// cover them, whatever the run's speed.
  std::size_t circuits = 0;
};

const std::vector<WorkloadConfig>& workloads();
const WorkloadConfig* find_workload(std::string_view name);

/// Circuit i of a workload at a workload seed: a `shape` surrogate whose
/// SurrogateSpec::seed derives from (workload, seed, i).  The program sees
/// only the .bench text.  Engines run single-threaded inside the job.
bist::JobSpec make_spec(const WorkloadConfig& w, std::uint64_t seed,
                        std::size_t i);
/// Circuits [0, count) of make_spec.
std::vector<bist::JobSpec> make_specs(const WorkloadConfig& w,
                                      std::uint64_t seed, std::size_t count);

/// What the output checks and the simulated sums read from one report.
struct JobSummary {
  bool ok = false;  ///< status Ok, wrapper verified, zero aliasing escapes
  std::uint64_t area_bits = 0;
  std::uint64_t test_cycles = 0;
  double coverage = 0;
  bool operator==(const JobSummary&) const = default;
};

JobSummary summarize(const bist::JobReport& r);

/// serialize_job_report of the report after strip_volatile.
std::vector<std::uint8_t> stripped_bytes(bist::JobReport r);

/// One job as a closed-loop worker ran it, seconds since the loop started.
struct JobTiming {
  std::size_t index = 0;
  double start_s = 0;
  double end_s = 0;
};

struct LoopResult {
  std::vector<JobTiming> jobs;  ///< sorted by index
};

/// Closed loop: `workers` threads take job indices first, first+1, ... in
/// order and call job(index) for each; a worker sends its next job only after
/// the previous one returned.  Dispatch stops at index `end` or, when
/// seconds > 0, once `seconds` have passed; jobs in flight then finish.
LoopResult closed_loop(unsigned workers, std::size_t first, std::size_t end,
                       double seconds,
                       const std::function<void(std::size_t)>& job);

/// Median and linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q);

/// The highest of {50, 55, ..., 95} percent with at least ten of `samples`
/// beyond it (50 when none has).
double tail_percentile(std::size_t samples);

/// getrusage user + system seconds of the whole process.
double process_cpu_s();
/// Peak resident set size in MiB.
double peak_rss_mb();

}  // namespace perfbench
