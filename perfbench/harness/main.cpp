// perfbench harness: one workload, one seed, one measured run.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                    --out-dir DIR --code-id ID
//
// --trace 0 sets the workload up five times (setup_s is the median), runs
// the timed phase for S seconds with tracing off and prints the end-to-end
// metrics.  The timed phase passes over the run's circuits several times and
// reports each circuit's median pass, so host stalls that cover only part of
// the run drop out of the figures, and rescales host times to a nominal host
// speed measured next to the jobs (calibrate.hpp), so that slow drifts of
// the host's speed between runs drop out too.  --trace 1 runs an untraced
// and a traced phase over the same job stream (and, for the open-loop
// workload, a service phase) and prints the per-layer metrics; the spans go
// to DIR as Chrome trace-event JSON plus a per-layer table.  --code-id names
// the program's sources (run.py passes their digest) in the same-seed record
// of the simulated sums.  Every run checks its outputs; the last stdout line
// is the result object {"correct", "attempted", "failed", "metrics"}, and a
// failed check exits 1.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "mem_fileops.hpp"
#include "pipeline/job.hpp"
#include "service/service.hpp"
#include "store/manifest.hpp"
#include "store/result_store.hpp"
#include "trace.hpp"
#include "traced_job.hpp"
#include "util/wallclock.hpp"
#include "workload.hpp"

namespace {

using perfbench::JobSummary;
using perfbench::WorkloadConfig;
using bist::WallClock;

constexpr int kSetupRepeats = 5;
// A timed phase makes at least this many passes over its circuits, however
// long they take, so that a median pass exists.
constexpr std::size_t kMinPasses = 3;
// Host-speed reference runs per worker after each set-up.
constexpr int kSetupReferenceRuns = 4;
// Closed-loop warm-up jobs per worker.
constexpr unsigned kWarmupPerWorker = 2;
// Closed-loop warm-up circuits come from this seed whatever --seed is, so
// that setup_s times the same work at every seed.
constexpr std::uint64_t kWarmupSeed = std::numeric_limits<std::uint64_t>::max();
// The traced run's closed loops have no last job: they stop on time.
constexpr std::size_t kNoEnd = std::numeric_limits<std::size_t>::max();
constexpr char kStoreDir[] = "mem/store";
constexpr char kManifest[] = "mem/manifest.bin";

std::mutex g_failures_mu;
std::vector<std::string> g_failures;  // guarded by g_failures_mu

void fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(g_failures_mu);
  g_failures.push_back(why);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

unsigned os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return unsigned(std::stoul(line.substr(8)));
  return 0;
}

// ---------------------------------------------------------------------------
// Open-loop bookkeeping: the generator registers each submission before it
// calls submit(); the service's sink matches reports back to submissions by
// job name (first in, first out — one circuit is never in flight twice at
// the workload's rate, so the match is exact).
// ---------------------------------------------------------------------------

class ServeLog {
 public:
  struct Entry {
    double due_s = 0;     ///< when the open loop was due to send it
    double submit_s = 0;  ///< when submit() was called
    double sink_s = 0;    ///< when its report reached the sink
    double run_s = 0;     ///< JobReport::seconds
    bool hit = false;     ///< sweep served from the store
    JobSummary summary;
  };

  explicit ServeLog(const std::vector<bist::JobSpec>& circuits) {
    for (std::size_t k = 0; k < circuits.size(); ++k)
      circuit_of_[circuits[k].name] = k;
    first_.resize(circuits.size());
  }

  /// Start a phase of n submissions; times are seconds since this call.
  void begin(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.assign(n, Entry{});
    pending_.clear();
    received_ = 0;
    for (auto& f : first_) f.reset();
    epoch_ = WallClock::now();
  }
  WallClock::time_point epoch() const { return epoch_; }

  void expect(std::size_t i, const std::string& name, double due_s) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[i].due_s = due_s;
    entries_[i].submit_s = bist::seconds_since(epoch_);
    pending_[name].push_back(i);
  }

  void on_report(const bist::JobReport& rep) {
    const double t = bist::seconds_since(epoch_);
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<std::size_t>& q = pending_[rep.name];
    if (q.empty()) {
      fail("service streamed an unexpected report for " + rep.name);
      return;
    }
    Entry& e = entries_[q.front()];
    q.pop_front();
    e.sink_s = t;
    e.run_s = rep.seconds;
    e.hit = rep.cache.hit;
    e.summary = perfbench::summarize(rep);
    const auto it = circuit_of_.find(rep.name);
    if (it != circuit_of_.end() && !first_[it->second]) first_[it->second] = rep;
    ++received_;
    cv_.notify_all();
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return received_ == entries_.size(); });
  }

  /// Valid once wait_all() returned.
  const std::vector<Entry>& entries() const { return entries_; }
  const std::vector<std::optional<bist::JobReport>>& first_reports() const {
    return first_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  std::map<std::string, std::deque<std::size_t>> pending_;
  std::map<std::string, std::size_t> circuit_of_;
  std::vector<std::optional<bist::JobReport>> first_;
  std::size_t received_ = 0;
  WallClock::time_point epoch_ = WallClock::now();
};

// What set-up leaves for the measured phases.
struct Rig {
  /// The run's circuits, from --seed: run cold on every pass (closed loop) or
  /// warmed into the store and served (open loop).
  std::vector<bist::JobSpec> specs;
  /// Closed loop: the untimed warm-up jobs.
  std::vector<bist::JobSpec> warmup;
  /// Stripped serialized reports: the warm-up jobs (closed loop) or the cold
  /// runs that warmed the store (open loop), by index.
  std::vector<std::vector<std::uint8_t>> reference;
  std::vector<JobSummary> ref_summary;  ///< open loop, by circuit
  perfbench::MemFileOps files;
  std::unique_ptr<bist::ResultStore> store;  // open loop: the warmed store
  std::unique_ptr<ServeLog> log;
  std::unique_ptr<bist::JobService> service;
};

struct RunContext {
  const WorkloadConfig& w;
  std::uint64_t seed = 0;
  std::string code_id;
  double seconds = 0;
  unsigned workers = 1;
  unsigned nproc = 1;
  unsigned peak_os_threads = 0;
};

void note_threads(RunContext& ctx) {
  ctx.peak_os_threads = std::max(ctx.peak_os_threads, os_threads());
}

bist::JobSpec with_store(const bist::JobSpec& s, bist::ResultStore* store) {
  bist::JobSpec spec = s;
  spec.store = store;
  return spec;
}

// Open loop: submit `n` jobs at the workload's rate through the rig's
// service, cycling over its circuits, and wait for every report.
// Between submissions the generator runs the host-speed reference.
struct OpenLoopResult {
  std::vector<double> submit_s;  ///< duration of each submit() call
  /// Per pass over the circuits: process CPU seconds, less the generator's
  /// reference work, and the speed factor of the pass.
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_speed;
  std::size_t rejected = 0;
  double max_late_s = 0;
};

OpenLoopResult open_loop(Rig& rig, const WorkloadConfig& w, std::size_t n,
                         RunContext& ctx) {
  OpenLoopResult r;
  r.submit_s.reserve(n);
  const std::size_t k = rig.specs.size();
  double cpu0 = 0, reference_cpu = 0;
  std::vector<double> reference_wall;
  const auto end_pass = [&] {
    r.pass_cpu_s.push_back(perfbench::process_cpu_s() - cpu0 - reference_cpu);
    r.pass_speed.push_back(perfbench::speed_factor(reference_wall));
    reference_cpu = 0;
    reference_wall.clear();
  };
  rig.log->begin(n);
  const auto epoch = rig.log->epoch();
  for (std::size_t i = 0; i < n; ++i) {
    const double due = double(i) / w.rate_per_s;
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<WallClock::duration>(
                    std::chrono::duration<double>(due)));
    const bist::JobSpec& spec = rig.specs[i % k];
    if (i % k == 0) {
      if (i > 0) end_pass();
      cpu0 = perfbench::process_cpu_s();
    }
    const auto t0 = WallClock::now();
    r.max_late_s = std::max(r.max_late_s, bist::seconds_since(epoch) - due);
    rig.log->expect(i, spec.name, due);
    const bist::SubmitResult s = rig.service->submit(spec);
    r.submit_s.push_back(bist::seconds_since(t0));
    if (s.code != bist::SubmitCode::Accepted) ++r.rejected;
    if (i == n / 2) note_threads(ctx);
    const perfbench::ReferenceRun ref = perfbench::reference_run();
    reference_wall.push_back(ref.wall_s);
    reference_cpu += ref.cpu_s;
  }
  rig.log->wait_all();
  end_pass();
  return r;
}

std::unique_ptr<Rig> set_up(RunContext& ctx) {
  const WorkloadConfig& w = ctx.w;
  auto rig = std::make_unique<Rig>();
  if (!w.open_loop) {
    // The run's circuits, then untimed warm-up without a store.
    rig->specs = perfbench::make_specs(w, ctx.seed, w.circuits);
    const std::size_t n = std::size_t(kWarmupPerWorker) * ctx.workers;
    rig->warmup = perfbench::make_specs(w, kWarmupSeed, n);
    rig->reference.resize(n);
    perfbench::closed_loop(ctx.workers, 0, n, 0, [&](std::size_t i) {
      const bist::JobReport rep = bist::run_plan_job(rig->warmup[i]);
      if (!perfbench::summarize(rep).ok) fail("warm-up job " + rep.name + " failed");
      rig->reference[i] = perfbench::stripped_bytes(rep);
    });
    return rig;
  }

  // Warm the store: one cold run per circuit.
  rig->specs = perfbench::make_specs(w, ctx.seed, w.circuits);
  rig->store = std::make_unique<bist::ResultStore>(
      bist::StoreOptions{kStoreDir, &rig->files});
  const std::size_t k = rig->specs.size();
  rig->reference.resize(k);
  rig->ref_summary.resize(k);
  perfbench::closed_loop(ctx.workers, 0, k, 0, [&](std::size_t i) {
    const bist::JobReport rep =
        bist::run_plan_job(with_store(rig->specs[i], rig->store.get()));
    if (!rep.cache.stored) fail("warm-up did not publish " + rep.name);
    rig->ref_summary[i] = perfbench::summarize(rep);
    rig->reference[i] = perfbench::stripped_bytes(rep);
  });

  // The service, then untimed warm-up submissions through it.
  rig->log = std::make_unique<ServeLog>(rig->specs);
  bist::ServiceOptions so;
  so.threads = ctx.workers;
  so.store = rig->store.get();
  so.manifest_path = kManifest;
  so.ops = &rig->files;
  ServeLog* log = rig->log.get();
  rig->service = std::make_unique<bist::JobService>(
      so, [log](const bist::JobReport& rep) { log->on_report(rep); });
  const std::size_t warm = 2 * std::size_t(ctx.workers);
  rig->log->begin(warm);
  for (std::size_t i = 0; i < warm; ++i) {
    rig->log->expect(i, rig->specs[i % k].name, 0);
    rig->service->submit(rig->specs[i % k]);
  }
  rig->log->wait_all();
  for (const ServeLog::Entry& e : rig->log->entries())
    if (!e.summary.ok || !e.hit) fail("warm-up submission failed or missed the store");
  return rig;
}

// ---------------------------------------------------------------------------
// Simulated sums and their same-seed record
// ---------------------------------------------------------------------------

struct SimSums {
  std::uint64_t area_bits = 0;
  std::uint64_t test_cycles = 0;
  double coverage_mean = 0;
};

SimSums sim_sums(const std::vector<JobSummary>& s) {
  SimSums out;
  for (const JobSummary& j : s) {
    out.area_bits += j.area_bits;
    out.test_cycles += j.test_cycles;
    out.coverage_mean += j.coverage;
  }
  if (!s.empty()) out.coverage_mean /= double(s.size());
  return out;
}

// Every trace-0 run records its simulated sums under (workload, seed, code
// id) in the output directory; a later run of the same code at the same seed
// must reproduce them exactly.  Other code may move them on purpose.
void check_sim_record(const std::string& out_dir, const RunContext& ctx,
                  const SimSums& s) {
  const std::string prefix = ctx.w.name + " " + std::to_string(ctx.seed) +
                         " " + ctx.code_id + " ";
  char sums[96];
  std::snprintf(sums, sizeof sums, "%llu %llu %.17g",
            static_cast<unsigned long long>(s.area_bits),
            static_cast<unsigned long long>(s.test_cycles), s.coverage_mean);
  const std::string mine = prefix + sums;
  const std::string path = out_dir + "/sim_sums.txt";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) {
      if (line != mine)
        fail("simulated sums differ from an earlier run at this seed: '" +
         line + "' vs '" + mine + "'");
      return;
    }
  std::ofstream(path, std::ios::app) << mine << "\n";
}

void check_reference(const Rig& rig, std::size_t i, const bist::JobReport& rep,
                 const char* what) {
  if (perfbench::stripped_bytes(rep) != rig.reference[i])
    fail(std::string(what) + ": report for " + rep.name +
         " differs from its same-seed reference");
}

// ---------------------------------------------------------------------------
// Timed phase (trace 0): end-to-end metrics
// ---------------------------------------------------------------------------

// Figures over one run's passes, in seconds at the nominal host speed: each
// pass's host times times its speed factor.  A circuit's latency is its
// median over the passes; throughput and CPU are those of the median pass.
struct Passes {
  explicit Passes(std::size_t circuits)
      : latency_s(circuits), host_latency_s(circuits) {}

  void latency(std::size_t circuit, double host_s, double speed) {
    latency_s[circuit].push_back(host_s * speed);
    host_latency_s[circuit].push_back(host_s);
  }

  std::vector<std::vector<double>> latency_s;       ///< by circuit, by pass
  std::vector<std::vector<double>> host_latency_s;  ///< the same, host seconds
  std::vector<double> rate;                          ///< by pass, jobs/s
  std::vector<double> cpu_s;                         ///< by pass, CPU per job
  std::vector<double> speed;                         ///< by pass
};

std::vector<double> circuit_medians(const std::vector<std::vector<double>>& v) {
  std::vector<double> m;
  for (const std::vector<double>& c : v) m.push_back(perfbench::quantile(c, 0.5));
  return m;
}

std::vector<Metric> pass_metrics(const Passes& p, const SimSums& s,
                                 std::size_t attempted, std::size_t failed,
                                 std::ostringstream& info) {
  const std::vector<double> lat = circuit_medians(p.latency_s);
  const double tail_p = perfbench::tail_percentile(lat.size());
  info << "\"passes\":" << p.speed.size() << ",\"speed_factors\":[";
  for (std::size_t i = 0; i < p.speed.size(); ++i)
    info << (i ? "," : "") << p.speed[i];
  info << "],\"host_job_p50_s\":"
       << perfbench::quantile(circuit_medians(p.host_latency_s), 0.5)
       << ",\"tail_percentile\":" << tail_p
       << ",\"latency_samples\":" << lat.size();
  return {
      {"jobs_per_s", perfbench::quantile(p.rate, 0.5), "1/s"},
      {"job_p50_s", perfbench::quantile(lat, 0.5), "s"},
      {"job_tail_s", perfbench::quantile(lat, tail_p / 100), "s"},
      {"cpu_s_per_job", perfbench::quantile(p.cpu_s, 0.5), "s"},
      {"peak_rss_mb", perfbench::peak_rss_mb(), "MB"},
      {"ok_frac", double(attempted - failed) / double(attempted), "frac"},
      {"area_bits_sum", double(s.area_bits), "bits"},
      {"test_cycles_sum", double(s.test_cycles), "cycles"},
      {"coverage_mean", s.coverage_mean, "frac"},
  };
}

// Closed loop: passes over the run's circuits, each with a fresh store so
// every sweep is computed and published, until the next pass would end after
// --seconds.  After each job its worker runs the host-speed reference.  Every
// pass must reproduce the first one's reports.
std::vector<Metric> timed_closed_loop(const Rig& rig, RunContext& ctx,
                                      const std::string& out_dir,
                                      std::size_t& attempted,
                                      std::size_t& failed,
                                      std::ostringstream& info) {
  const std::size_t n = rig.specs.size();
  Passes p(n);
  std::vector<JobSummary> first;
  std::vector<std::vector<std::uint8_t>> first_bytes;
  std::mutex mu;
  const auto t0 = WallClock::now();
  for (;;) {
    perfbench::MemFileOps files(false);
    bist::ResultStore store({kStoreDir, &files});
    bist::BatchManifest manifest(kManifest, &files);
    std::vector<double> latency(n);
    std::vector<perfbench::ReferenceRun> ref(n);
    std::vector<JobSummary> summary(n);
    std::vector<std::vector<std::uint8_t>> bytes(n);
    const double cpu0 = perfbench::process_cpu_s();
    const auto pass_start = WallClock::now();
    perfbench::closed_loop(ctx.workers, 0, n, 0, [&](std::size_t i) {
      const bist::JobSpec spec = with_store(rig.specs[i], &store);
      const auto start = WallClock::now();
      const bist::JobReport rep = bist::run_plan_job(spec);
      if (rep.status.ok()) manifest.append(bist::job_key(spec), rep);
      latency[i] = bist::seconds_since(start);
      ref[i] = perfbench::reference_run();
      summary[i] = perfbench::summarize(rep);
      bytes[i] = perfbench::stripped_bytes(rep);
      if (i == ctx.workers) {
        std::lock_guard<std::mutex> lock(mu);
        note_threads(ctx);
      }
    });
    const double span = bist::seconds_since(pass_start);
    double cpu = perfbench::process_cpu_s() - cpu0;

    std::vector<double> reference_wall;
    for (const perfbench::ReferenceRun& r : ref) {
      reference_wall.push_back(r.wall_s);
      cpu -= r.cpu_s;
    }
    const double speed = perfbench::speed_factor(reference_wall);
    double busy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      p.latency(i, latency[i], speed);
      busy += latency[i];
    }
    p.speed.push_back(speed);
    // A closed loop without think time completes workers / mean latency jobs
    // per second (Little's law); this leaves out the idle workers at the end
    // of a pass and the harness's own work between jobs.
    p.rate.push_back(double(ctx.workers) * double(n) / (busy * speed));
    p.cpu_s.push_back(cpu * speed / double(n));
    for (const JobSummary& s : summary)
      if (!s.ok) ++failed;
    attempted += n;
    if (first.empty()) {
      first = summary;
      first_bytes = std::move(bytes);
    } else {
      for (std::size_t i = 0; i < n; ++i)
        if (bytes[i] != first_bytes[i])
          fail("pass " + std::to_string(p.speed.size()) + ": report for " +
               rig.specs[i].name + " differs from the first pass");
    }
    // Stop when the next pass would end after --seconds.
    if (p.speed.size() >= kMinPasses && bist::seconds_since(t0) + span > ctx.seconds)
      break;
  }
  if (failed) fail(std::to_string(failed) + " timed jobs failed their checks");
  const SimSums s = sim_sums(first);
  check_sim_record(out_dir, ctx, s);
  return pass_metrics(p, s, attempted, failed, info);
}

// Check every served report of an open-loop phase against the cold runs
// that warmed the store.
std::size_t check_served(const Rig& rig) {
  std::size_t ok = 0;
  const auto& entries = rig.log->entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ServeLog::Entry& e = entries[i];
    const std::size_t k = i % rig.specs.size();
    if (e.summary.ok && e.hit && e.summary == rig.ref_summary[k]) ++ok;
  }
  const auto& first = rig.log->first_reports();
  for (std::size_t k = 0; k < first.size(); ++k)
    if (first[k]) check_reference(rig, k, *first[k], "store hit");
  return ok;
}

// Open loop: whole passes over the warmed circuits at the workload's rate,
// as many as fit in --seconds.
std::vector<Metric> timed_open_loop(Rig& rig, RunContext& ctx,
                                    const std::string& out_dir,
                                    std::size_t& attempted,
                                    std::size_t& failed,
                                    std::ostringstream& info) {
  const WorkloadConfig& w = ctx.w;
  const std::size_t k = rig.specs.size();
  const std::size_t passes = std::max<std::size_t>(
      kMinPasses, std::size_t(w.rate_per_s * ctx.seconds) / k);
  const std::size_t n = passes * k;
  const OpenLoopResult r = open_loop(rig, w, n, ctx);

  Passes p(k);
  p.speed = r.pass_speed;
  double last = 0;
  const auto& entries = rig.log->entries();
  for (std::size_t i = 0; i < n; ++i) {
    p.latency(i % k, entries[i].sink_s - entries[i].due_s, p.speed[i / k]);
    last = std::max(last, entries[i].sink_s);
  }
  // The offered rate sets the throughput unless the service falls behind,
  // so it is not rescaled.
  p.rate = {double(n) / last};
  for (std::size_t j = 0; j < passes; ++j)
    p.cpu_s.push_back(r.pass_cpu_s[j] * p.speed[j] / double(k));
  const std::size_t ok = check_served(rig);
  attempted = n;
  failed = n - ok;
  if (failed) fail(std::to_string(failed) + " served jobs failed their checks");
  const SimSums s = sim_sums(rig.ref_summary);
  check_sim_record(out_dir, ctx, s);
  info << "\"rate_per_s\":" << w.rate_per_s << ",\"rejected\":" << r.rejected
       << ",\"generator_max_late_s\":" << r.max_late_s << ",";
  return pass_metrics(p, s, attempted, failed, info);
}

// ---------------------------------------------------------------------------
// Traced run (trace 1): per-layer metrics
// ---------------------------------------------------------------------------

struct ServicePhase {
  double submit_s = 0;      ///< mean submit() duration
  double queue_wait_s = 0;  ///< mean sink - submit - JobReport::seconds
  double rejected = 0;
  double late_s = 0;        ///< generator's worst lateness
};

std::vector<Metric> traced_run(Rig& rig, RunContext& ctx,
                               const std::string& out_dir,
                               std::size_t& attempted, std::size_t& failed) {
  const WorkloadConfig& w = ctx.w;
  const double phase_s = ctx.seconds / (w.open_loop ? 3 : 2);
  ServicePhase svc;

  if (w.open_loop) {
    const std::size_t n = std::max<std::size_t>(1, std::size_t(w.rate_per_s * phase_s));
    const OpenLoopResult r = open_loop(rig, w, n, ctx);
    double wait = 0;
    for (const ServeLog::Entry& e : rig.log->entries())
      wait += e.sink_s - e.submit_s - e.run_s;
    for (const double d : r.submit_s) svc.submit_s += d;
    svc.submit_s /= double(n);
    svc.queue_wait_s = wait / double(n);
    svc.rejected = double(r.rejected);
    svc.late_s = r.max_late_s;
    const std::size_t ok = check_served(rig);
    attempted += n;
    failed += n - ok;
    rig.service->drain(-1);
    rig.service.reset();
  }

  // Closed loops over the same job stream: the open-loop workload cycles over
  // its warmed circuits (every sweep a store hit), the cold workloads start
  // each phase with a fresh store.
  const auto spec_of = [&](std::size_t i) {
    return w.open_loop ? rig.specs[i % rig.specs.size()]
                       : perfbench::make_spec(w, ctx.seed, i);
  };

  // Phase A, untraced.
  std::map<std::size_t, double> untraced;
  std::mutex mu;
  std::map<std::size_t, JobSummary> untraced_summary;
  {
    perfbench::MemFileOps files(false);
    bist::ResultStore cold_store({kStoreDir, &files});
    bist::ResultStore* store = w.open_loop ? rig.store.get() : &cold_store;
    bist::BatchManifest manifest(kManifest, &files);
    const perfbench::LoopResult loop = perfbench::closed_loop(
        ctx.workers, 0, kNoEnd, phase_s, [&](std::size_t i) {
          const bist::JobSpec spec = with_store(spec_of(i), store);
          const bist::JobReport rep = bist::run_plan_job(spec);
          if (rep.status.ok()) manifest.append(bist::job_key(spec), rep);
          std::lock_guard<std::mutex> lock(mu);
          untraced_summary[i] = perfbench::summarize(rep);
        });
    for (const perfbench::JobTiming& t : loop.jobs)
      untraced[t.index] = t.end_s - t.start_s;
  }

  // Phase B, traced.
  perfbench::Tracer tracer;
  perfbench::LayerCounts counts;
  std::map<std::size_t, double> traced;
  {
    perfbench::MemFileOps files(false);
    bist::ResultStore cold_store({kStoreDir, &files});
    bist::ResultStore* store = w.open_loop ? rig.store.get() : &cold_store;
    perfbench::MemFileOps& store_files = w.open_loop ? rig.files : files;
    bist::BatchManifest manifest(kManifest, &files);
    perfbench::closed_loop(ctx.workers, 0, kNoEnd, phase_s, [&](std::size_t i) {
      const bist::JobSpec spec = spec_of(i);
      perfbench::TracedJob tj;
      try {
        tj = perfbench::run_traced_job(spec, std::uint32_t(i), tracer, *store,
                                       manifest, store_files);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        fail("traced job " + spec.name + " threw: " + e.what());
        ++attempted;
        ++failed;
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      counts.add(tj.counts);
      traced[i] = tj.job_s - tj.probe_s;
      ++attempted;
      const auto it = untraced_summary.find(i);
      const bool same = it == untraced_summary.end() || it->second == tj.summary;
      if (!tj.summary.ok || !tj.probes_match || !same) {
        ++failed;
        fail("traced job " + spec.name + " failed its checks");
      }
      if (i == ctx.workers) note_threads(ctx);
    });
  }
  attempted += untraced_summary.size();
  for (const auto& [i, s] : untraced_summary)
    if (!s.ok) {
      ++failed;
      fail("untraced job " + std::to_string(i) + " failed its checks");
    }

  // Tracing overhead: traced stage time against untraced job time over the
  // jobs both phases ran.
  double t_sum = 0, u_sum = 0;
  for (const auto& [i, t] : traced)
    if (const auto it = untraced.find(i); it != untraced.end()) {
      t_sum += t;
      u_sum += it->second;
    }

  const std::vector<perfbench::Span> spans = tracer.spans();
  const std::vector<perfbench::LayerRow> rows = perfbench::aggregate_layers(spans);
  const std::string stem = out_dir + "/" + w.name + "-seed" + std::to_string(ctx.seed);
  std::ofstream(stem + ".trace.json") << perfbench::chrome_trace_json(spans);
  const std::string table = perfbench::layer_table_text(rows);
  std::ofstream(stem + ".layers.txt") << table;
  std::istringstream lines(table);
  for (std::string l; std::getline(lines, l);) std::cout << "# " << l << "\n";

  const double jobs = double(std::max<std::uint64_t>(1, counts.jobs));
  const auto per_job = [&](const char* layer) {
    for (const perfbench::LayerRow& r : rows)
      if (r.name == layer) return r.total_s / jobs;
    return 0.0;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"netlist.parse_s", per_job("netlist.parse"), "s/job"},
      {"sim.kernel_s", per_job("sim.kernel"), "s/job"},
      {"fault.lfsr_sim_s", per_job("fault.lfsr_sim"), "s/job"},
      {"fault.podem_s", per_job("fault.podem"), "s/job"},
      {"fault.podem_calls", double(counts.podem_calls) / jobs, "1/job"},
      {"fault.podem_aborted", double(counts.podem_aborted) / jobs, "1/job"},
      {"fault.podem_backtracks", double(counts.podem_backtracks) / jobs, "1/job"},
      {"fault.podem_useful_frac",
       ratio(double(counts.podem_useful), double(counts.podem_calls)), "frac"},
      {"tpg.sweep_s", per_job("tpg.sweep"), "s/job"},
      {"tpg.cube_cache_hit_frac",
       ratio(double(counts.cube_cache_hits),
             double(counts.cube_cache_hits + counts.cube_cache_calls)),
       "frac"},
      {"tpg.sweep_solve_s", counts.sweep_solve_s / jobs, "s/job"},
      {"bist.fold_audit_s", per_job("bist.fold_audit"), "s/job"},
      {"bist.golden_s", per_job("bist.golden"), "s/job"},
      {"bist.seed_solve_s", per_job("bist.seed_solve"), "s/job"},
      {"bist.seeds", double(counts.seeds) / jobs, "1/job"},
      {"bist.fallback_rows", double(counts.fallback_rows) / jobs, "1/job"},
      {"bist.schedule_s", per_job("bist.schedule"), "s/job"},
      {"bist.synth_s", per_job("bist.synth"), "s/job"},
      {"bist.wrapper_gates", double(counts.wrapper_gates) / jobs, "1/job"},
      {"bist.selfsim_s", per_job("bist.selfsim"), "s/job"},
      {"bist.verify_s", per_job("bist.verify"), "s/job"},
      {"bist.escapes", double(counts.escapes), "count"},
      {"store.load_s", per_job("store.load"), "s/job"},
      {"store.hit_frac",
       ratio(double(counts.store_hits), double(counts.store_lookups)), "frac"},
      {"store.publish_s", per_job("store.publish"), "s/job"},
      {"store.record_bytes",
       ratio(double(counts.record_bytes),
             double(counts.store_lookups - counts.store_hits)),
       "B/record"},
      {"store.journal_s", per_job("store.journal"), "s/job"},
      {"service.submit_s", svc.submit_s, "s/job"},
      {"service.queue_wait_s", svc.queue_wait_s, "s/job"},
      {"service.rejected", svc.rejected, "count"},
      {"loadgen.late_s", svc.late_s, "s"},
      {"trace.overhead_frac", u_sum > 0 ? t_sum / u_sum - 1 : 0, "frac"},
  };
}

// ---------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR --code-id ID\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir, code_id;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string a = argv[i], v = argv[i + 1];
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--out-dir") out_dir = v;
      else if (a == "--code-id") code_id = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || out_dir.empty() || code_id.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();
  const WorkloadConfig* w = perfbench::find_workload(workload);
  if (!w) {
    std::cerr << "error: unknown workload '" << workload << "'\n";
    return 2;
  }

  RunContext ctx{*w, seed, code_id};
  ctx.seconds = seconds;
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  // Flat thread budget: engines run single-threaded inside each job, and the
  // batch or service workers plus the main thread (the open-loop generator)
  // stay within nproc.
  ctx.workers = std::clamp(ctx.nproc - 1, 1u, 3u);

  // setup_s samples in host seconds and rescaled by the host-speed reference
  // run right after each set-up.
  std::vector<double> setup_host_s, setup_s;
  std::unique_ptr<Rig> rig;
  // setup_s is the median of several set-ups; the traced run reports no
  // setup_s and sets up once.
  for (int r = 0; r < (trace == 0 ? kSetupRepeats : 1); ++r) {
    const auto t0 = WallClock::now();
    std::unique_ptr<Rig> next = set_up(ctx);
    setup_host_s.push_back(bist::seconds_since(t0));
    setup_s.push_back(setup_host_s.back() *
                      perfbench::measure_speed(ctx.workers, kSetupReferenceRuns));
    if (rig && next->reference != rig->reference)
      fail("set-up repeats produced different reports at one seed");
    rig = std::move(next);
  }

  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  std::ostringstream info;
  if (trace == 0) {
    metrics = w->open_loop
                  ? timed_open_loop(*rig, ctx, out_dir, attempted, failed, info)
                  : timed_closed_loop(*rig, ctx, out_dir, attempted, failed, info);
    metrics.insert(metrics.begin() + 1,
                   Metric{"setup_s", perfbench::quantile(setup_s, 0.5), "s"});
  } else {
    metrics = traced_run(*rig, ctx, out_dir, attempted, failed);
  }
  if (rig->service) rig->service->drain(-1);

  const unsigned generator = w->open_loop ? 1 : 0;
  if (ctx.workers + generator > ctx.nproc)
    fail("thread budget exceeded: workers + generator > nproc");

  std::cout << "{\"perfbench_info\":{\"workload\":\"" << w->name
            << "\",\"seed\":" << seed << ",\"nproc\":" << ctx.nproc
            << ",\"workers\":" << ctx.workers
            << ",\"generator_threads\":" << generator
            << ",\"podem_threads\":1,\"fsim_threads\":1"
            << ",\"peak_os_threads\":" << ctx.peak_os_threads
            << ",\"setup_host_samples_s\":[";
  for (std::size_t i = 0; i < setup_host_s.size(); ++i)
    std::cout << (i ? "," : "") << json_number(setup_host_s[i]);
  std::cout << "]";
  if (!info.str().empty()) std::cout << "," << info.str();
  std::cout << "}}\n";

  for (const std::string& f : g_failures) std::cerr << "check failed: " << f << "\n";
  std::cout << "{\"correct\":" << (g_failures.empty() ? "true" : "false")
            << ",\"attempted\":" << std::max<std::size_t>(1, attempted)
            << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
              << json_number(metrics[i].value) << ",\"unit\":\""
              << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return g_failures.empty() ? 0 : 1;
}
