// Fault-simulation throughput bench and front end of the BIST generator:
// seed BitParSim loop vs. SimKernel path, plus the PPSFP fault simulator
// driven by a maximal-length LFSR, across the ISCAS85 surrogate family.
// Emits BENCH_fault_sim.json with gate-evals/sec for both logic-sim paths
// (and their ratio), faults-dropped/sec for the fault simulator, and each
// circuit's plan job (LFSR phase -> PODEM top-off -> schedule -> wrapper).
//
// The logic-sim and fault-sim sections follow the same statistical hygiene:
// one untimed warmup pass (page in the scratch, warm the caches and the
// branch predictors), then --reps timed repetitions reporting the fastest
// (small-circuit sections are microseconds-scale, where min-of-N is the
// standard way to suppress scheduler noise).  Each JSON section carries
// `reps` and `seconds_best` so downstream comparisons know what they are
// looking at.
//
// Per circuit the classic mode then runs the paper's generator as ONE plan
// job — run_plan_job over the same JobSpec --jobs builds (sweep -> schedule
// -> synth -> verify), one warmup pass plus best-of---sweep-reps passes of
// the whole job — and writes its JSON sections from the JobReport
// (--no-mixed skips the job):
//
//   mixed_sweep  the scheme at --sweep-lengths candidate LFSR lengths, plus
//                the naive per-point run_mixed_tpg loop (timed once; it is
//                the slow baseline), cross-checked point by point against
//                the sweep (a divergence fails the run) and reported as the
//                naive/sweep speedup.
//   mixed_tpg    the sweep's longest point (--patterns with the default
//                lengths), timed by the naive run at that length; the
//                sweep's phase timings are in mixed_sweep.
//   bist_plan    the scheduled knee of the length-vs-ROM trade-off (under an
//                optional --budget test-time cap), the synthesized wrapper
//                (written as wrapper_<circuit>.bench under --wrapper-dir;
//                the JSON records the file name alone) and its inductive
//                self-verification, which must reproduce the scheduled point
//                exactly (wrapper_matches_plan).  --plot adds the
//                coverage-vs-length and ROM-vs-length curves.
//
// Robustness flags: --deadline-ms D becomes the job's anytime sweep deadline
// and --job-timeout-ms J its whole-job cap, exactly as in --jobs.
// Deadline-shaped runs degrade instead of failing — the sweep yields
// LfsrOnly/Skipped points per its anytime contract, the scheduler falls back
// to a degraded (LFSR-only) plan, and the wrapper is still synthesized and
// self-verified; a synth or verify stopped by J shows as bist_plan.status.
// Because results are then wall-clock-shaped, the job runs exactly once and
// the naive loop is skipped (mixed_tpg's seconds_best is then 0).  The run
// exits nonzero on any job Error (a wrapper that mismatches its plan is one)
// and on any top-off pattern that failed its fault-sim check.
//
// The compressed test-data architecture is on by default: top-off cubes are
// stored as LFSR reseeding schedules (seed ROM) with decoded fallback rows,
// and a MISR compacts the CUT responses into one signature checked on-chip.
// --no-compress selects the legacy fully decoded ROM + per-pattern-compare
// architecture; the bist_plan section then reports rom_bits only and the
// compression fields are zero.  Compressed runs report seed_rom_bits /
// misr_bits / fallback_rows, the compression ratio against the decoded
// encoding of the same top-off set, and the empirical aliasing audit
// (aliasing_escapes must be 0 for wrapper_matches_plan to hold).
//
// Batch (jobs) mode: --jobs submits one JobSpec per circuit — the same
// job_spec the classic mode runs — to a JobService (the executor --serve
// runs too) and drains it; reports come back in --circuits order.
// --cache-dir DIR (implies --jobs) attaches the durable content-addressed
// ResultStore: sweep results are served from / published to DIR, corrupt
// records quarantine and recompute, and the service journals completed jobs
// to DIR/batch.manifest so --resume replays them after a crash (kill -9
// mid-batch, rerun with --resume: finished circuits come back from the
// journal, the interrupted one recomputes, usually from the sweep cache).
// A replayed job reports 0 for its stage and job seconds: the journal keeps
// results, not timings.  --retries N arms bounded deterministic retry for
// transient stage failures.  Jobs mode emits BENCH JSON
// {"bench": "job_batch", ...} with per-job cache/stage/attempt detail and
// aggregate cache_stats, and exits nonzero if any job ends in an Error
// status.
//
// Usage: bench_fault_sim [--patterns N] [--reps N] [--threads N] [--width W]
//                        [--circuits c17,c6288s,...]
//                        [--podem-backtracks N] [--no-mixed]
//                        [--sweep-reps N] [--sweep-lengths a,b,c]
//                        [--no-compress] [--budget N]
//                        [--wrapper-dir DIR]
//                        [--deadline-ms D] [--job-timeout-ms J]
//                        [--jobs] [--cache-dir DIR] [--resume] [--retries N]
//                        [--serve] [--spool DIR] [--stream FILE]
//                        [--drain-ms N] [--queue-limit N] [--watchdog-ms N]
//                        [--quarantine-after N]
//                        [--health FILE] [--health-period-ms N]
//                        [--chaos stage:circuit[:times[:transient|det|cancel]]]
//                        [--out FILE] [--plot]

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pipeline/job.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/bitpar_sim.hpp"
#include "sim/kernel.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/mixed.hpp"
#include "util/ascii_plot.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/wallclock.hpp"

namespace {

using Clock = bist::WallClock;
using bist::seconds_since;

struct PathResult {
  double seconds = 0;
  std::uint64_t gate_evals = 0;
  double evals_per_sec = 0;
  std::uint64_t checksum = 0;  ///< XOR of PO words, cross-checked between paths
};

// Each path runs one untimed warmup pass, then `reps` timed passes keeping
// the fastest (the per-pass work is ~us..ms scale, so min-of-N suppresses
// scheduler jitter).
PathResult run_seed_path(const bist::Netlist& n,
                         std::span<const bist::PatternBlock> blocks, int reps) {
  bist::BitParSim sim(n);
  PathResult r;
  r.seconds = 1e30;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup, untimed
    std::uint64_t checksum = 0;
    const auto t0 = Clock::now();
    for (const auto& b : blocks) {
      sim.simulate(b);
      for (bist::GateId o : n.outputs()) checksum ^= sim.value(o) & b.lane_mask();
    }
    if (rep >= 0) r.seconds = std::min(r.seconds, seconds_since(t0));
    r.checksum = checksum;
  }
  r.gate_evals = std::uint64_t(n.logic_gate_count()) * 64 * blocks.size();
  r.evals_per_sec = r.seconds > 0 ? double(r.gate_evals) / r.seconds : 0;
  return r;
}

// Kernel path at W x 64 lanes per pass; W=1 is the classic KernelSim loop.
template <unsigned W>
PathResult run_wide_path(const bist::SimKernel& k,
                         std::span<const bist::PatternBlock> blocks, int reps) {
  bist::WideSimT<W> sim(k);
  PathResult r;
  r.seconds = 1e30;
  for (int rep = -1; rep < reps; ++rep) {
    std::uint64_t checksum = 0;
    const auto t0 = Clock::now();
    for (std::size_t bi = 0; bi < blocks.size();) {
      const std::size_t nb = bist::WideSimT<W>::group_size(blocks, bi);
      sim.simulate(blocks.subspan(bi, nb));
      for (bist::KIndex o : k.outputs()) {
        const auto v = sim.value_at(o);
        if constexpr (W == 1) {
          checksum ^= v & blocks[bi].lane_mask();
        } else {
          for (unsigned j = 0; j < nb; ++j)
            checksum ^= v.w[j] & blocks[bi + j].lane_mask();
        }
      }
      bi += nb;
    }
    if (rep >= 0) r.seconds = std::min(r.seconds, seconds_since(t0));
    r.checksum = checksum;
  }
  r.gate_evals = std::uint64_t(k.schedule().size() + k.constants().size()) *
                 64 * blocks.size();
  r.evals_per_sec = r.seconds > 0 ? double(r.gate_evals) / r.seconds : 0;
  return r;
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

// Circuit names, wrapper file names and status messages reach the JSON from
// the command line and the spool; escape them so quotes, backslashes or
// control characters cannot break the output.
std::string json_str(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
         << "0123456789abcdef"[c & 0xf];
    else os << c;
  }
  os << '"';
  return os.str();
}

}  // namespace

namespace {

int run_bench(int argc, char** argv);

// The knobs every mode turns into JobSpecs, plus the batch store/manifest
// and output paths.
struct JobModeConfig {
  std::vector<std::string> names;
  std::size_t patterns = 10240;
  std::vector<std::size_t> sweep_lengths;  // empty = derive from patterns
  bist::FaultSimOptions fopt;
  unsigned threads = 0;                    // 0 = hardware concurrency
  std::uint32_t podem_backtracks = 100;
  bool compress = true;                    // compressed test data (seeds + MISR)
  std::size_t budget = 0;                  // scheduler test-time budget, 0 = none
  std::string wrapper_dir = ".";           // where wrapper_<circuit>.bench lands
  double deadline_ms = 0;                  // sweep anytime deadline, 0 = off
  double job_timeout_ms = 0;               // whole-job wall-clock cap, 0 = off
  std::string cache_dir;                   // durable sweep store root
  bool resume = false;                     // replay the batch manifest
  unsigned retries = 1;                    // stage attempts (1 = no retry)
  std::string out_path = "BENCH_fault_sim.json";
};

// The one JobSpec builder: --jobs and --serve submit identical specs for
// identical knobs, so their job_keys (and manifests) line up.
bist::JobSpec job_spec(const JobModeConfig& cfg, std::string name,
                       std::string bench_text) {
  bist::JobSpec spec;
  spec.name = std::move(name);
  spec.bench_text = std::move(bench_text);
  spec.sweep_lengths = cfg.sweep_lengths;
  spec.tpg.fsim = cfg.fopt;
  spec.tpg.podem.backtrack_limit = cfg.podem_backtracks;
  spec.tpg.podem_threads = cfg.threads;
  spec.tpg.compress = cfg.compress;
  spec.schedule.test_time_budget = cfg.budget;
  spec.sweep_deadline_s = cfg.deadline_ms / 1000.0;
  spec.job_timeout_s = cfg.job_timeout_ms / 1000.0;
  spec.retry.attempts = std::max(1u, cfg.retries);
  return spec;
}

const char* json_bool(bool v) { return v ? "true" : "false"; }

// Write `text` to `path`; false when the file could not be written.
bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.flush();
  return bool(f);
}

// Where every mode writes a job's wrapper netlist (JobReport::wrapper_bench):
// wrapper_<name>.bench under `dir`.  Returns the file name the JSON records
// — without `dir`, so a report reads the same wherever it was written — or
// "" when the job built no wrapper; nullopt, after an error line, when the
// file could not be written (every mode then exits 1).
std::optional<std::string> write_wrapper(const std::string& dir,
                                         const bist::JobReport& rep) {
  if (rep.wrapper_bench.empty()) return std::string();
  std::string file = "wrapper_" + rep.name + ".bench";
  const std::string path = (std::filesystem::path(dir) / file).string();
  if (!write_text(path, rep.wrapper_bench)) {
    std::cerr << "error: could not write " << path << "\n";
    return std::nullopt;
  }
  return file;
}

// The named stage of a job report; a stage the job never reached (or a job
// that never ran) reads as not run.
bist::StageReport stage_of(const bist::JobReport& rep, std::string_view name) {
  for (const bist::StageReport& s : rep.stages)
    if (s.name == name) return s;
  bist::StageReport none;
  none.status = bist::StageStatus::error("not run");
  return none;
}

// The one JobReport JSON writer: a single-line object, used for the --jobs
// "jobs" entries and the --serve JSONL stream alike.
std::string job_report_json(const bist::JobReport& rep) {
  const auto code = [](bist::StageCode c) {
    return json_str(std::string(bist::stage_code_name(c)));
  };
  std::ostringstream js;
  js << "{\"name\": " << json_str(rep.name)
     << ", \"status\": " << code(rep.status.code)
     << ", \"status_message\": " << json_str(rep.status.message)
     << ", \"degraded\": " << json_bool(rep.degraded)
     << ", \"wrapper_ok\": " << json_bool(rep.wrapper_ok)
     << ", \"cache\": {\"consulted\": " << json_bool(rep.cache.consulted)
     << ", \"hit\": " << json_bool(rep.cache.hit)
     << ", \"stored\": " << json_bool(rep.cache.stored)
     << ", \"quarantined\": " << json_bool(rep.cache.quarantined)
     << ", \"manifest\": " << json_bool(rep.cache.manifest)
     << ", \"note\": " << json_str(rep.cache.note) << "}, \"stages\": [";
  for (std::size_t s = 0; s < rep.stages.size(); ++s) {
    const bist::StageReport& sr = rep.stages[s];
    js << (s ? ", " : "") << "{\"name\": " << json_str(sr.name)
       << ", \"status\": " << code(sr.status.code)
       << ", \"attempts\": " << sr.attempts
       << ", \"seconds\": " << json_num(sr.seconds) << "}";
  }
  js << "], \"chosen_length\": " << rep.plan.lfsr_patterns
     << ", \"topoff_patterns\": " << rep.plan.topoff_patterns
     << ", \"test_time\": " << rep.plan.test_time
     << ", \"rom_bits\": " << rep.plan.rom_bits
     << ", \"area_bits\": " << rep.plan.area.area_bits()
     << ", \"final_coverage\": " << json_num(rep.plan.final_coverage)
     << ", \"selfsim_cycles\": " << rep.verification.cycles
     << ", \"selfsim_coverage\": "
     << json_num(rep.verification.achieved_coverage)
     << ", \"seconds\": " << json_num(rep.seconds) << "}";
  return js.str();
}

// The JobService knobs --jobs and --serve share: the worker count, and the
// store and the journal `manifest_name` side by side under --cache-dir.  A
// run without --cache-dir is uncached (and --resume has nothing to replay
// from).  `store` backs opt.store and must outlive the service.
struct ServiceSetup {
  bist::ServiceOptions opt;
  std::unique_ptr<bist::ResultStore> store;  // null when uncached
};

ServiceSetup service_setup(const JobModeConfig& cfg,
                           const std::string& manifest_name) {
  ServiceSetup s;
  s.opt.threads = cfg.threads;
  s.opt.resume = cfg.resume;
  if (!cfg.cache_dir.empty()) {
    bist::StoreOptions so;
    so.dir = cfg.cache_dir;
    s.store = std::make_unique<bist::ResultStore>(std::move(so));
    s.opt.store = s.store.get();
    s.opt.manifest_path = cfg.cache_dir + "/" + manifest_name;
  } else if (cfg.resume) {
    std::cerr << "note: --resume without --cache-dir has no manifest to "
                 "replay; running cold\n";
  }
  return s;
}

// --jobs: submit every circuit's spec to a JobService, then drain it.  The
// queue holds the whole corpus, so nothing is shed, and one client at one
// priority makes intake FIFO.
int run_job_mode(const JobModeConfig& cfg) {
  std::vector<bist::JobSpec> specs;
  specs.reserve(cfg.names.size());
  for (const std::string& name : cfg.names)
    specs.push_back(
        job_spec(cfg, name, bist::write_bench(bist::make_iscas85(name))));

  ServiceSetup setup = service_setup(cfg, "batch.manifest");
  setup.opt.queue_limit = std::max<std::size_t>(1, specs.size());
  std::vector<bist::JobReport> done;  // completion order
  const auto t0 = Clock::now();
  bist::JobService svc(setup.opt, [&](const bist::JobReport& rep) {
    done.push_back(rep);  // sink calls are serialized by the service
  });
  for (const bist::JobSpec& spec : specs) {
    const bist::SubmitCode code = svc.submit(spec).code;
    if (code != bist::SubmitCode::Accepted &&
        code != bist::SubmitCode::Replayed) {
      std::cerr << "error: " << spec.name << " was "
                << bist::submit_code_name(code) << "\n";
      return 1;
    }
  }
  svc.drain(-1);
  const double batch_secs = seconds_since(t0);

  // Back to spec order.  Specs that share a name are the same spec (job_spec
  // builds it from the name alone), so which duplicate fills which slot
  // changes nothing.
  std::vector<bist::JobReport> reports;
  reports.reserve(specs.size());
  for (const bist::JobSpec& spec : specs) {
    const auto it =
        std::find_if(done.begin(), done.end(), [&](const bist::JobReport& r) {
          return r.name == spec.name;
        });
    reports.push_back(std::move(*it));
    done.erase(it);
  }

  bool any_error = false;
  std::uint64_t retry_attempts = 0;  // extra tries beyond the first, all stages
  std::ostringstream js;
  js << "{\n  \"bench\": \"job_batch\",\n  \"patterns\": " << cfg.patterns
     << ",\n  \"retries\": " << cfg.retries
     << ",\n  \"resume\": " << json_bool(cfg.resume)
     << ",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const bist::JobReport& rep = reports[i];
    any_error = any_error || rep.status.code == bist::StageCode::Error;
    if (!write_wrapper(cfg.wrapper_dir, rep)) return 1;

    const char* source = rep.cache.manifest ? "manifest"
                         : rep.cache.hit    ? "cache"
                                            : "computed";
    std::cout << rep.name << ": job "
              << bist::stage_code_name(rep.status.code) << " (" << source
              << "), L=" << rep.plan.lfsr_patterns << " + "
              << rep.plan.topoff_patterns << " ROM, coverage "
              << bist::format_fixed(100 * rep.plan.final_coverage, 2)
              << "%, wrapper "
              << (rep.wrapper_ok ? "ok" : "NOT VERIFIED")
              << (rep.degraded ? " [DEGRADED]" : "") << " ("
              << bist::format_fixed(rep.seconds, 2) << "s)\n";

    for (const bist::StageReport& sr : rep.stages)
      retry_attempts += sr.attempts > 0 ? sr.attempts - 1 : 0;
    js << (i ? ",\n" : "") << "    " << job_report_json(rep);
  }
  const std::uint64_t replayed = svc.health().replayed;
  const bist::StoreStats ss =
      setup.store ? setup.store->stats() : bist::StoreStats{};
  js << "\n  ],\n  \"cache_stats\": {\"sweep_hits\": " << ss.hits
     << ", \"sweep_misses\": " << ss.misses << ", \"stored\": " << ss.stores
     << ", \"store_failures\": " << ss.store_failures
     << ", \"quarantined\": " << ss.quarantined
     << ", \"manifest_hits\": " << replayed
     << ", \"retry_attempts\": " << retry_attempts
     << "},\n  \"seconds\": " << json_num(batch_secs) << "\n}\n";

  if (!write_text(cfg.out_path, js.str())) {
    std::cerr << "error: could not write " << cfg.out_path << "\n";
    return 1;
  }
  std::cout << "batch: " << reports.size() << " jobs in "
            << bist::format_fixed(batch_secs, 2) << "s — sweep cache "
            << ss.hits << " hits / " << ss.misses << " misses, " << ss.stores
            << " stored, " << ss.quarantined << " quarantined, manifest "
            << replayed << " replayed, " << retry_attempts << " retries\n";
  std::cout << "wrote " << cfg.out_path << "\n";
  if (any_error) {
    std::cerr << "error: a job ended in an Error status\n";
    return 1;
  }
  return 0;
}

// --- Service mode: long-lived resilient job server -------------------------
//
// --serve runs the JobService front end: submissions arrive as text lines,
// either from stdin (default, until EOF or a line reading `STOP`) or from a
// spool directory (--spool DIR: every *.job file is read line by line,
// submitted, and renamed to *.job.done; a `stop.ctl` sentinel file requests
// a full drain and exit; move files into the spool atomically).  Line
// grammar, whitespace-separated:
//
//   <circuit> [client=NAME] [priority=N]
//
// Blank lines and lines starting with `#` are skipped; unknown tokens are
// ignored; N is a decimal int (higher runs first).  A line whose priority=
// value is not an int, or is out of range, is rejected with a note on
// stderr and never submitted — it gets no report, and the server keeps
// serving.  Unknown circuit names become jobs whose bench text is the raw
// line, so a malformed submission is contained as a parse-stage Error
// report instead of killing the server.  Every submission streams exactly
// one JSONL report (--stream FILE, appended and flushed per line) written
// by the same job_report_json as the --jobs per-job entries, so a service
// stream and a cold batch run are directly comparable once volatile fields
// (seconds, attempts, cache provenance, status_message) are stripped.
// SIGTERM/SIGINT trigger a graceful drain bounded by --drain-ms: in-flight
// work is cancelled at the deadline, queued work is dropped WITH a report,
// and the manifest journal under --cache-dir lets a restarted server
// (--resume) replay completed jobs at admission.  --watchdog-ms N arms the
// watchdog: a job is cancelled a fixed grace (kWatchdogGraceS) past its
// timeout — --job-timeout-ms when set, which the job normally meets itself,
// else N — and --quarantine-after K refuses a name after K such kills.
// --chaos stage:circuit[:times[:transient|det|cancel]] arms the
// process-global fault injection hook for chaos runs (`cancel` cancels the
// job's own token at stage entry); a malformed spec (too few fields, a
// times that is not an int, or an unknown kind) exits 2.  A health snapshot JSON is published
// atomically to --health every --health-period-ms and once more at exit.

volatile std::sig_atomic_t g_stop_signal = 0;

void handle_stop_signal(int) { g_stop_signal = 1; }

struct ServeConfig {
  std::string spool_dir;  // empty = read submissions from stdin
  std::string stream_path = "BENCH_service.jsonl";
  std::string health_path = "BENCH_service_health.json";
  double health_period_ms = 500;
  std::size_t queue_limit = 64;
  double watchdog_ms = 0;
  int quarantine_after = 3;
  double drain_ms = 5000;
  std::string chaos;  // stage:circuit[:times[:transient|det|cancel]]
  JobModeConfig job;  // shared spec/store/manifest knobs
};

int run_serve_mode(const ServeConfig& cfg) {
  namespace fs = std::filesystem;

  if (!cfg.chaos.empty()) {
    std::vector<std::string> parts;
    for (auto tok : bist::split(cfg.chaos, ":")) parts.emplace_back(tok);
    int times = -1;
    bool bad = parts.size() < 2;
    if (!bad && parts.size() > 2) {
      const char* last = parts[2].data() + parts[2].size();
      const auto [end, ec] = std::from_chars(parts[2].data(), last, times);
      bad = ec != std::errc() || end != last;
    }
    bist::InjectedFailure kind = bist::InjectedFailure::Error;
    if (!bad && parts.size() > 3) {
      if (parts[3] == "transient")
        kind = bist::InjectedFailure::Transient;
      else if (parts[3] == "cancel")
        kind = bist::InjectedFailure::Cancel;
      else
        bad = parts[3] != "det";
    }
    if (bad) {
      std::cerr << "error: --chaos wants "
                   "stage:circuit[:times[:transient|det|cancel]]\n";
      return 2;
    }
    const char* what = kind == bist::InjectedFailure::Transient ? "transient"
                       : kind == bist::InjectedFailure::Cancel  ? "cancel"
                                                                : "sticky";
    bist::set_injected_failure(parts[0], parts[1], times, kind);
    std::cout << "chaos: injecting " << what << " failure at " << parts[0]
              << "/" << parts[1] << " x" << times << "\n";
  }

  ServiceSetup setup = service_setup(cfg.job, "service.manifest");
  bist::ServiceOptions& so = setup.opt;
  so.queue_limit = cfg.queue_limit;
  so.watchdog_timeout_s = cfg.watchdog_ms / 1000.0;
  so.quarantine_after = cfg.quarantine_after;
  so.health_path = cfg.health_path;
  so.health_period_s = cfg.health_period_ms / 1000.0;

  std::ofstream stream(cfg.stream_path, std::ios::app);
  if (!stream) {
    std::cerr << "error: could not open stream " << cfg.stream_path << "\n";
    return 1;
  }
  std::uint64_t streamed = 0;
  bist::JobService svc(so, [&](const bist::JobReport& rep) {
    stream << job_report_json(rep) << "\n";
    stream.flush();  // one durable line per report: tail-able and kill-safe
    ++streamed;      // sink calls are serialized by the service
  });

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  // One submission line: `<circuit> [client=NAME] [priority=N]`.  A line
  // whose priority is not an int is rejected here, before submission, so it
  // gets no report and the server keeps serving.
  const auto submit_line = [&](const std::string& line) {
    std::istringstream is(line);
    std::string name, tok, client;
    int priority = 0;
    if (!(is >> name) || name[0] == '#') return;  // blank / comment
    while (is >> tok) {
      if (tok.rfind("client=", 0) == 0) {
        client = tok.substr(7);
      } else if (tok.rfind("priority=", 0) == 0) {
        const char* first = tok.data() + 9;
        const char* last = tok.data() + tok.size();
        const auto [end, ec] = std::from_chars(first, last, priority);
        if (ec != std::errc() || end != last) {
          std::cerr << "rejected line (bad " << tok << "): " << line << "\n";
          return;
        }
      }
    }
    std::string bench_text;
    try {
      bench_text = bist::write_bench(bist::make_iscas85(name));
    } catch (const std::exception&) {
      // Unknown circuit: ship the raw line as the bench text so the parse
      // stage contains the failure as a per-job Error, not a server fault.
      bench_text = line;
    }
    const bist::SubmitResult r = svc.submit(
        job_spec(cfg.job, name, std::move(bench_text)), client, priority);
    std::cout << "submit " << name << ": " << bist::submit_code_name(r.code)
              << " (ticket " << r.ticket << ")\n";
  };

  bool stop_requested = false;
  if (cfg.spool_dir.empty()) {
    // Stdin mode: one submission per line until EOF or STOP.  (Signals may
    // not interrupt a blocked read on every platform; the spool mode below
    // is the one CI drives SIGTERM against.)
    std::string line;
    while (!g_stop_signal && std::getline(std::cin, line)) {
      if (line == "STOP") {
        stop_requested = true;
        break;
      }
      submit_line(line);
    }
  } else {
    std::error_code ec;
    fs::create_directories(cfg.spool_dir, ec);
    std::cout << "serving from spool " << cfg.spool_dir << " (stop: SIGTERM"
              << " or stop.ctl)\n";
    while (!g_stop_signal && !stop_requested) {
      // Deterministic intake order: *.job files sorted by name.
      std::vector<fs::path> batch;
      for (const auto& ent : fs::directory_iterator(cfg.spool_dir, ec)) {
        if (ent.path().extension() == ".job") batch.push_back(ent.path());
      }
      std::sort(batch.begin(), batch.end());
      for (const fs::path& p : batch) {
        std::ifstream f(p);
        std::string line;
        while (std::getline(f, line)) submit_line(line);
        fs::rename(p, p.string() + ".done", ec);  // consume exactly once
      }
      if (fs::exists(fs::path(cfg.spool_dir) / "stop.ctl", ec)) {
        stop_requested = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  const char* why = g_stop_signal ? "signal" : stop_requested ? "stop.ctl"
                                                              : "eof";
  std::cout << "drain (" << why << "): deadline "
            << bist::format_fixed(cfg.drain_ms, 0) << "ms\n";
  // stop.ctl / EOF mean "finish everything"; a signal gets the bounded
  // deadline so shutdown cannot hang behind a wedged job.
  svc.drain(g_stop_signal ? cfg.drain_ms / 1000.0 : -1.0);
  bist::clear_injected_failure();

  const bist::ServiceHealth h = svc.health();
  std::cout << "service: " << h.submitted << " submitted, " << h.accepted
            << " accepted, " << h.replayed << " replayed, " << h.completed_ok
            << " ok, " << h.completed_error << " error, "
            << h.completed_stopped << " stopped, " << h.drain_dropped
            << " dropped, "
            << (h.rejected_overload + h.rejected_quarantine +
                h.rejected_stopping)
            << " rejected, " << h.watchdog_kills << " watchdog kills; "
            << streamed << " reports streamed to " << cfg.stream_path << "\n";
  // Accounting invariant: exactly one streamed report per submission.
  if (streamed != h.submitted) {
    std::cerr << "error: streamed " << streamed << " reports for "
              << h.submitted << " submissions\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

namespace {

int run_bench(int argc, char** argv) {
  JobModeConfig cfg;
  cfg.names = bist::iscas85_names();
  cfg.fopt.word_width = bist::kMaxWordWidth;
  int reps = 5;
  bool plot = false;
  bool mixed = true;
  int sweep_reps = 2;
  bool jobs_mode = false;          // run the fault-tolerant batch pipeline
  bool serve_mode = false;         // long-lived job service front end
  ServeConfig serve;               // --serve knobs (spool, stream, watchdog)

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--patterns") {
      cfg.patterns = std::stoul(next());
    } else if (a == "--reps") {
      reps = std::stoi(next());
    } else if (a == "--threads") {
      cfg.threads = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--width") {
      cfg.fopt.word_width = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--out") {
      cfg.out_path = next();
    } else if (a == "--plot") {
      plot = true;
    } else if (a == "--no-mixed") {
      mixed = false;
    } else if (a == "--podem-backtracks") {
      cfg.podem_backtracks = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--sweep-reps") {
      sweep_reps = std::stoi(next());
    } else if (a == "--no-compress") {
      cfg.compress = false;
    } else if (a == "--budget") {
      cfg.budget = std::stoul(next());
    } else if (a == "--wrapper-dir") {
      cfg.wrapper_dir = next();
    } else if (a == "--deadline-ms") {
      cfg.deadline_ms = std::stod(next());
    } else if (a == "--job-timeout-ms") {
      cfg.job_timeout_ms = std::stod(next());
    } else if (a == "--jobs") {
      jobs_mode = true;
    } else if (a == "--cache-dir") {
      cfg.cache_dir = next();
      jobs_mode = true;
    } else if (a == "--resume") {
      cfg.resume = true;
      jobs_mode = true;
    } else if (a == "--retries") {
      cfg.retries = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--serve") {
      serve_mode = true;
    } else if (a == "--spool") {
      serve.spool_dir = next();
      serve_mode = true;
    } else if (a == "--stream") {
      serve.stream_path = next();
      serve_mode = true;
    } else if (a == "--drain-ms") {
      serve.drain_ms = std::stod(next());
    } else if (a == "--queue-limit") {
      serve.queue_limit = std::stoul(next());
    } else if (a == "--watchdog-ms") {
      serve.watchdog_ms = std::stod(next());
    } else if (a == "--quarantine-after") {
      serve.quarantine_after = std::stoi(next());
    } else if (a == "--health") {
      serve.health_path = next();
    } else if (a == "--health-period-ms") {
      serve.health_period_ms = std::stod(next());
    } else if (a == "--chaos") {
      serve.chaos = next();
    } else if (a == "--sweep-lengths") {
      cfg.sweep_lengths.clear();
      const std::string list = next();
      for (auto tok : bist::split(list, ","))
        cfg.sweep_lengths.push_back(std::stoul(std::string(tok)));
    } else if (a == "--circuits") {
      cfg.names.clear();
      const std::string list = next();  // keep alive: split returns views
      for (auto tok : bist::split(list, ","))
        cfg.names.emplace_back(tok);
    } else {
      std::cerr << "usage: bench_fault_sim [--patterns N] [--reps N] "
                   "[--threads N] [--width W] [--circuits a,b] "
                   "[--podem-backtracks N] [--no-mixed] "
                   "[--sweep-reps N] [--sweep-lengths a,b,c] "
                   "[--no-compress] [--budget N] "
                   "[--wrapper-dir DIR] "
                   "[--deadline-ms D] [--job-timeout-ms J] "
                   "[--jobs] [--cache-dir DIR] [--resume] [--retries N] "
                   "[--serve] [--spool DIR] [--stream FILE] [--drain-ms N] "
                   "[--queue-limit N] [--watchdog-ms N] "
                   "[--quarantine-after N] [--health FILE] "
                   "[--health-period-ms N] [--chaos stage:circuit[:n[:kind]]] "
                   "[--out FILE] [--plot]\n";
      return 2;
    }
  }
  std::size_t& patterns = cfg.patterns;
  if (patterns == 0 || patterns % 64 != 0) patterns = ((patterns / 64) + 1) * 64;
  if (reps < 1) reps = 1;
  if (sweep_reps < 1) sweep_reps = 1;
  // Deadline-shaped runs are not repeatable measurements: a warmup or a
  // best-of-N pass would consume a different slice of the budget each time.
  // A deadlined job runs exactly once, and the naive cross-check (which
  // expects bit-identical Complete points) is skipped.
  const bool anytime = cfg.deadline_ms > 0 || cfg.job_timeout_ms > 0;
  if (anytime) sweep_reps = 1;
  std::vector<std::size_t>& sweep_lengths = cfg.sweep_lengths;
  if (sweep_lengths.empty()) {
    // Six points spanning the trade-off curve up to the full phase length.
    for (const double f : {0.125, 0.25, 0.375, 0.5, 0.75, 1.0}) {
      const auto len = static_cast<std::size_t>(double(patterns) * f);
      if (len && (sweep_lengths.empty() || sweep_lengths.back() != len))
        sweep_lengths.push_back(len);
    }
  }
  cfg.fopt.threads = cfg.threads;

  if (serve_mode) {
    serve.job = std::move(cfg);
    return run_serve_mode(serve);
  }
  if (jobs_mode) {
    if (cfg.out_path == "BENCH_fault_sim.json")
      cfg.out_path = "BENCH_job_batch.json";
    return run_job_mode(cfg);
  }

  const bist::FaultSimOptions& fopt = cfg.fopt;
  std::ostringstream js;
  js << "{\n  \"bench\": \"fault_sim\",\n  \"patterns\": " << patterns
     << ",\n  \"circuits\": [\n";

  if (!mixed) {
    // --budget / --wrapper-dir would be silently dead otherwise.
    std::cerr << "note: --no-mixed skips the plan job (sweep, BIST plan and "
                 "wrapper)\n";
  }
  double c6288_speedup = 0;
  bool all_verified = true;
  bool any_error = false;
  bool first = true;
  for (const std::string& name : cfg.names) {
    bist::Netlist n = bist::make_iscas85(name);
    const bist::NetlistStats st = bist::compute_stats(n);
    const bist::SimKernel kernel(n);

    // One LFSR stream per use so both logic-sim paths see identical patterns.
    const unsigned degree = 32;
    bist::Lfsr lfsr = bist::Lfsr::maximal(degree, 0xBADC0FFEu);
    const auto blocks = lfsr.blocks(n.input_count(), patterns);

    const PathResult seed = run_seed_path(n, blocks, reps);
    const PathResult kern = run_wide_path<1>(kernel, blocks, reps);
    const PathResult wide = run_wide_path<bist::kMaxWordWidth>(kernel, blocks, reps);
    if (seed.checksum != kern.checksum || seed.checksum != wide.checksum) {
      std::cerr << name << ": seed/kernel/wide output mismatch!\n";
      return 1;
    }
    const double speedup =
        kern.evals_per_sec > 0 && seed.evals_per_sec > 0
            ? kern.evals_per_sec / seed.evals_per_sec
            : 0;
    if (name.rfind("c6288", 0) == 0) c6288_speedup = speedup;

    // Fault-sim section: same warmup + best-of-N discipline.  Every rep
    // restarts from the full fault list and produces identical results, so
    // only the timing varies.
    bist::FaultSimulator fsim(kernel);
    bist::FaultSimResult fr = fsim.run(blocks, fopt);  // warmup (kept: results)
    double fsecs = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      const auto tf0 = Clock::now();
      fr = fsim.run(blocks, fopt);
      fsecs = std::min(fsecs, seconds_since(tf0));
    }

    std::cout << name << ": " << st.gates << " gates, seed "
              << bist::format_fixed(seed.evals_per_sec / 1e6, 1)
              << " Mevals/s, kernel "
              << bist::format_fixed(kern.evals_per_sec / 1e6, 1)
              << " Mevals/s (x" << bist::format_fixed(speedup, 2) << "), wide["
              << bist::kMaxWordWidth << "x64] "
              << bist::format_fixed(wide.evals_per_sec / 1e6, 1)
              << " Mevals/s, faults " << fr.detected << "/" << fr.sim_faults
              << " detected (cov "
              << bist::format_fixed(100 * fr.final_coverage(), 2) << "%, "
              << bist::format_fixed(fsecs ? fr.detected / fsecs : 0, 0)
              << " dropped/s, " << fr.threads << " threads, "
              << fr.word_width << "x64 lanes)\n";

    // --- The plan job: sweep -> schedule -> synth -> verify ---------------
    // The same run_plan_job (and JobSpec) --jobs drives: one warm-up pass,
    // then best-of---sweep-reps passes of the whole job (one pass when
    // deadlined).
    bist::JobReport rep;
    // Naive baseline: an independent run_mixed_tpg per length, each paying
    // its own LFSR pass and full PODEM tail, timed once and cross-checked
    // point by point against the job's sweep.
    std::vector<bist::MixedSchemeResult> naive;
    std::vector<double> naive_point_secs;
    double naive_secs = 0;
    std::string wrapper_file;
    if (mixed) {
      const bist::JobSpec spec = job_spec(cfg, name, bist::write_bench(n));
      rep = bist::run_plan_job(spec);
      for (int r = 0; !anytime && r < sweep_reps; ++r) {
        bist::JobReport cur = bist::run_plan_job(spec);
        if (r == 0 || cur.seconds < rep.seconds) rep = std::move(cur);
      }
      if (rep.status.code == bist::StageCode::Error) {
        any_error = true;
        std::cerr << name << ": " << rep.status.message << "\n";
      }

      if (!anytime && !rep.sweep.points.empty()) {
        for (const std::size_t len : sweep_lengths) {
          bist::MixedTpgOptions po = spec.tpg;
          po.lfsr_patterns = len;
          const auto tn0 = Clock::now();
          naive.push_back(bist::run_mixed_tpg(kernel, fsim, po));
          naive_point_secs.push_back(seconds_since(tn0));
          naive_secs += naive_point_secs.back();
        }
        for (std::size_t p = 0; p < sweep_lengths.size(); ++p)
          if (rep.sweep.points[p] != naive[p]) {
            std::cerr << name << ": sweep point results diverge from the "
                         "naive per-point loop!\n";
            return 1;
          }
      }

      const std::optional<std::string> written =
          write_wrapper(cfg.wrapper_dir, rep);
      if (!written) return 1;
      wrapper_file = *written;
    }

    const bist::MixedSweepResult& sw = rep.sweep;
    const bool have_sweep = !sw.points.empty();
    const bool have_plan = stage_of(rep, "schedule").status.ok();
    const bist::BistPlan& plan = rep.plan;
    const bist::WrapperVerification& wv = rep.verification;
    const double sweep_secs = stage_of(rep, "sweep").seconds;
    const double sched_secs = stage_of(rep, "schedule").seconds;
    const double synth_secs = stage_of(rep, "synth").seconds;
    const double selfsim_secs = stage_of(rep, "verify").seconds;
    // A synth or verify stage stopped by --job-timeout-ms reports its stop
    // here; a verify that ran and mismatched reports "error".
    std::string bist_status = "ok";
    for (const char* s : {"synth", "verify"}) {
      const bist::StageStatus ss = stage_of(rep, s).status;
      if (!ss.ok()) {
        bist_status = bist::stage_code_name(ss.code);
        break;
      }
    }

    // mixed_tpg is the sweep's longest point, timed by the naive run at that
    // length (0 when the naive loop was skipped).
    const std::size_t longest = static_cast<std::size_t>(
        std::max_element(sweep_lengths.begin(), sweep_lengths.end()) -
        sweep_lengths.begin());
    const bist::MixedSchemeResult none;
    const bist::MixedSchemeResult& mr = have_sweep ? sw.points[longest] : none;
    const double msecs = naive.empty() ? 0 : naive_point_secs[longest];
    const int naive_reps = anytime ? 0 : 1;

    if (have_sweep) {
      for (const auto& pt : sw.points)
        all_verified = all_verified && pt.all_verified;
      std::cout << name << ": mixed scheme " << mr.lfsr_patterns << " LFSR + "
                << mr.topoff_patterns << " top-off patterns (tail "
                << mr.tail_faults << ": " << mr.podem_detected << " podem, "
                << mr.redundant << " redundant, " << mr.aborted
                << " aborted), coverage "
                << bist::format_fixed(100 * mr.lfsr_coverage, 2) << "% -> "
                << bist::format_fixed(100 * mr.final_coverage, 2) << "%"
                << " (" << bist::format_fixed(msecs, 2) << "s)"
                << (mr.all_verified ? "" : " [VERIFY FAILED]") << "\n";
      if (!mr.status.ok())
        std::cout << name << ": mixed scheme degraded to "
                  << bist::point_state_name(mr.state) << " ("
                  << bist::stage_code_name(mr.status.code) << ")\n";

      const double ratio = sweep_secs > 0 ? naive_secs / sweep_secs : 0;
      std::cout << name << ": sweep " << sweep_lengths.size() << " lengths in "
                << bist::format_fixed(sweep_secs, 2) << "s vs naive "
                << bist::format_fixed(naive_secs, 2) << "s (x"
                << bist::format_fixed(ratio, 1) << ", podem "
                << sw.stats.podem_calls << " calls + "
                << sw.stats.podem_cache_hits << " cache hits, "
                << sw.stats.podem_threads << " threads)\n";
      if (!sw.status.ok()) {
        std::cout << name << ": sweep degraded ("
                  << bist::stage_code_name(sw.status.code) << "), points:";
        for (const auto& pt : sw.points)
          std::cout << " " << bist::point_state_name(pt.state);
        std::cout << "\n";
      }
    }

    if (have_plan) {
      std::cout << name << ": bist plan L=" << plan.lfsr_patterns << " + "
                << plan.topoff_patterns << " ROM patterns ("
                << plan.rom_bits << " ROM bits, "
                << plan.area.area_bits() << " area bits, "
                << bist::format_fixed(rep.synth.actual.total(), 1)
                << " GE), wrapper " << rep.synth.wrapper_gates << " gates -> "
                << wrapper_file << ", self-sim " << wv.cycles
                << " cycles coverage "
                << bist::format_fixed(100 * wv.achieved_coverage, 2) << "%"
                << (bist_status == "ok"      ? " == plan"
                    : bist_status == "error" ? " [PLAN MISMATCH]"
                                             : " [" + bist_status + "]")
                << " ("
                << bist::format_fixed(sched_secs + synth_secs + selfsim_secs, 2)
                << "s)" << (plan.degraded ? " [DEGRADED: LFSR-only tier]" : "")
                << "\n";
      if (plan.comp.enabled) {
        const std::uint64_t decoded =
            std::uint64_t(plan.topoff_patterns) * n.input_count();
        const std::uint64_t stored =
            plan.rom_bits + plan.comp.seed_rom_bits();
        std::cout << name << ": compressed data " << plan.comp.seeds.size()
                  << " seeds (" << plan.comp.seed_rom_bits()
                  << " seed-ROM bits) + " << plan.comp.fallback_rows()
                  << " fallback rows (" << plan.rom_bits
                  << " decoded bits) vs " << decoded
                  << " bits fully decoded (x"
                  << bist::format_fixed(
                         stored ? double(decoded) / double(stored) : 0, 2)
                  << "), MISR K=" << plan.comp.misr.degree << " aliasing "
                  << wv.aliasing.escapes << "/" << wv.aliasing.detected_checked
                  << " escapes\n";
      }
    } else if (mixed) {
      // A job stopped or failed before its schedule stage has no plan.
      std::cout << name << ": no BIST plan (job "
                << bist::stage_code_name(rep.status.code) << ": "
                << rep.status.message << ")\n";
    }

    if (!first) js << ",\n";
    first = false;
    js << "    {\n      \"name\": \"" << name << "\",\n"
       << "      \"gates\": " << st.gates << ",\n"
       << "      \"inputs\": " << st.inputs << ",\n"
       << "      \"outputs\": " << st.outputs << ",\n"
       << "      \"depth\": " << st.depth << ",\n"
       << "      \"logic_sim\": {\n"
       << "        \"patterns\": " << patterns << ",\n"
       << "        \"reps\": " << reps << ",\n"
       << "        \"seed_bitpar\": {\"seconds_best\": " << json_num(seed.seconds)
       << ", \"gate_evals\": " << seed.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(seed.evals_per_sec) << "},\n"
       << "        \"kernel\": {\"seconds_best\": " << json_num(kern.seconds)
       << ", \"gate_evals\": " << kern.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(kern.evals_per_sec) << "},\n"
       << "        \"kernel_wide\": {\"word_width\": " << bist::kMaxWordWidth
       << ", \"seconds_best\": " << json_num(wide.seconds)
       << ", \"gate_evals\": " << wide.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(wide.evals_per_sec) << "},\n"
       << "        \"speedup_kernel_over_seed\": " << json_num(speedup) << "\n"
       << "      },\n"
       << "      \"fault_sim\": {\n"
       << "        \"total_faults\": " << fr.total_faults << ",\n"
       << "        \"collapsed_faults\": " << fr.sim_faults << ",\n"
       << "        \"detected\": " << fr.detected << ",\n"
       << "        \"coverage\": " << json_num(fr.final_coverage()) << ",\n"
       << "        \"threads\": " << fr.threads << ",\n"
       << "        \"word_width\": " << fr.word_width << ",\n"
       << "        \"reps\": " << reps << ",\n"
       << "        \"seconds_best\": " << json_num(fsecs) << ",\n"
       << "        \"faults_dropped_per_sec\": "
       << json_num(fsecs > 0 ? fr.detected / fsecs : 0) << ",\n"
       << "        \"faulty_gate_evals\": " << fr.faulty_gate_evals << ",\n"
       << "        \"faulty_gate_evals_per_sec\": "
       << json_num(fsecs > 0 ? double(fr.faulty_gate_evals) / fsecs : 0) << "\n"
       << "      }";
    if (have_sweep) {
      js << ",\n      \"mixed_tpg\": {\n"
         << "        \"lfsr_patterns\": " << mr.lfsr_patterns << ",\n"
         << "        \"tail_faults\": " << mr.tail_faults << ",\n"
         << "        \"podem\": {\"detected\": " << mr.podem_detected
         << ", \"redundant\": " << mr.redundant
         << ", \"aborted\": " << mr.aborted
         << ", \"backtracks\": " << mr.podem_backtracks
         << ", \"decisions\": " << mr.podem_decisions << "},\n"
         << "        \"podem_threads\": " << bist::resolve_threads(cfg.threads)
         << ",\n"
         << "        \"topoff_patterns\": " << mr.topoff_patterns << ",\n"
         << "        \"topoff_before_compaction\": "
         << mr.topoff_before_compaction << ",\n"
         << "        \"lfsr_coverage\": " << json_num(mr.lfsr_coverage) << ",\n"
         << "        \"lfsr_coverage_weighted\": "
         << json_num(mr.lfsr_coverage_weighted) << ",\n"
         << "        \"final_coverage\": " << json_num(mr.final_coverage) << ",\n"
         << "        \"final_coverage_weighted\": "
         << json_num(mr.final_coverage_weighted) << ",\n"
         << "        \"patterns_verified\": "
         << (mr.all_verified ? "true" : "false") << ",\n"
         << "        \"state\": "
         << json_str(std::string(bist::point_state_name(mr.state))) << ",\n"
         << "        \"status\": "
         << json_str(std::string(bist::stage_code_name(mr.status.code)))
         << ",\n"
         << "        \"reps\": " << naive_reps << ",\n"
         << "        \"seconds_best\": " << json_num(msecs) << "\n      }";
    }
    if (have_sweep) {
      js << ",\n      \"mixed_sweep\": {\n        \"lengths\": [";
      for (std::size_t p = 0; p < sweep_lengths.size(); ++p)
        js << (p ? ", " : "") << sweep_lengths[p];
      js << "],\n        \"points\": [\n";
      for (std::size_t p = 0; p < sw.points.size(); ++p) {
        const bist::MixedSchemeResult& pt = sw.points[p];
        js << "          {\"length\": " << pt.lfsr_patterns
           << ", \"tail_faults\": " << pt.tail_faults
           << ", \"topoff_patterns\": " << pt.topoff_patterns
           << ", \"lfsr_coverage\": " << json_num(pt.lfsr_coverage)
           << ", \"final_coverage\": " << json_num(pt.final_coverage)
           << ", \"final_coverage_weighted\": "
           << json_num(pt.final_coverage_weighted)
           << ", \"state\": "
           << json_str(std::string(bist::point_state_name(pt.state))) << "}"
           << (p + 1 < sw.points.size() ? "," : "") << "\n";
      }
      js << "        ],\n"
         << "        \"podem_calls\": " << sw.stats.podem_calls << ",\n"
         << "        \"podem_cache_hits\": " << sw.stats.podem_cache_hits
         << ",\n"
         << "        \"podem_threads\": " << sw.stats.podem_threads << ",\n"
         << "        \"lfsr_seconds\": " << json_num(sw.stats.lfsr_seconds)
         << ",\n"
         << "        \"podem_seconds\": " << json_num(sw.stats.podem_seconds)
         << ",\n"
         << "        \"compact_seconds\": "
         << json_num(sw.stats.compact_seconds) << ",\n"
         << "        \"solve_seconds\": " << json_num(sw.stats.solve_seconds)
         << ",\n"
         << "        \"status\": "
         << json_str(std::string(bist::stage_code_name(sw.status.code)))
         << ",\n"
         << "        \"completed_points\": "
         << std::count_if(sw.points.begin(), sw.points.end(),
                          [](const bist::MixedSchemeResult& pt) {
                            return pt.state == bist::PointState::Complete;
                          })
         << ",\n"
         << "        \"naive_reps\": " << naive_reps << ",\n"
         << "        \"naive_seconds\": " << json_num(naive_secs) << ",\n"
         << "        \"sweep_reps\": " << sweep_reps << ",\n"
         << "        \"sweep_seconds_best\": " << json_num(sweep_secs) << ",\n"
         << "        \"speedup_naive_over_sweep\": "
         << json_num(sweep_secs > 0 ? naive_secs / sweep_secs : 0) << ",\n";
      if (!naive.empty())  // a divergence has already failed the run
        js << "        \"points_match_naive\": true,\n";
      js << "        \"deadline_ms\": " << json_num(cfg.deadline_ms)
         << "\n      }";
    }
    if (have_plan) {
      js << ",\n      \"bist_plan\": {\n"
         << "        \"objective\": \"knee_under_budget\",\n"
         << "        \"degraded\": " << (plan.degraded ? "true" : "false")
         << ",\n"
         << "        \"status\": " << json_str(bist_status)
         << ",\n"
         << "        \"test_time_budget\": " << cfg.budget << ",\n"
         << "        \"chosen_length\": " << plan.lfsr_patterns << ",\n"
         << "        \"topoff_patterns\": " << plan.topoff_patterns << ",\n"
         << "        \"test_time\": " << plan.test_time << ",\n"
         << "        \"rom_bits\": " << plan.rom_bits << ",\n"
         << "        \"state_bits\": " << plan.area.state_bits << ",\n"
         << "        \"area_bits\": " << plan.area.area_bits() << ",\n"
         << "        \"compress\": " << (plan.comp.enabled ? "true" : "false")
         << ",\n"
         << "        \"seed_rom_bits\": " << plan.area.seed_rom_bits << ",\n"
         << "        \"misr_bits\": " << plan.area.misr_bits << ",\n"
         << "        \"seed_count\": " << plan.comp.seeds.size() << ",\n"
         << "        \"fallback_rows\": " << plan.comp.fallback_rows() << ",\n"
         << "        \"decoded_rom_bits\": "
         << std::uint64_t(plan.topoff_patterns) * n.input_count() << ",\n"
         << "        \"compression_ratio\": "
         << json_num([&] {
              const double stored =
                  double(plan.rom_bits) + double(plan.area.seed_rom_bits);
              const double decoded =
                  double(plan.topoff_patterns) * double(n.input_count());
              return stored > 0 ? decoded / stored : 0.0;
            }())
         << ",\n"
         << "        \"aliasing_escapes\": " << wv.aliasing.escapes << ",\n"
         << "        \"aliasing_checked\": " << wv.aliasing.detected_checked
         << ",\n"
         << "        \"aliasing_bound\": " << json_num(wv.aliasing.bound)
         << ",\n"
         << "        \"knee_distance\": " << json_num(plan.knee_distance)
         << ",\n"
         << "        \"final_coverage\": " << json_num(plan.final_coverage)
         << ",\n"
         << "        \"area_estimate_ge\": {\"lfsr\": "
         << json_num(plan.area.lfsr)
         << ", \"rom\": " << json_num(plan.area.rom)
         << ", \"seed_rom\": " << json_num(plan.area.seed_rom)
         << ", \"controller\": " << json_num(plan.area.controller)
         << ", \"mux\": " << json_num(plan.area.mux)
         << ", \"misr\": " << json_num(plan.area.misr)
         << ", \"total\": " << json_num(plan.area.total()) << "},\n"
         << "        \"area_actual_ge\": {\"lfsr\": "
         << json_num(rep.synth.actual.lfsr)
         << ", \"rom\": " << json_num(rep.synth.actual.rom)
         << ", \"seed_rom\": " << json_num(rep.synth.actual.seed_rom)
         << ", \"controller\": " << json_num(rep.synth.actual.controller)
         << ", \"mux\": " << json_num(rep.synth.actual.mux)
         << ", \"misr\": " << json_num(rep.synth.actual.misr)
         << ", \"total\": " << json_num(rep.synth.actual.total()) << "},\n"
         << "        \"wrapper_gates\": " << rep.synth.wrapper_gates << ",\n"
         << "        \"bist_gates\": " << rep.synth.bist_gates << ",\n"
         << "        \"counter_bits\": " << rep.synth.counter_bits << ",\n"
         << "        \"wrapper_file\": " << json_str(wrapper_file) << ",\n"
         << "        \"candidates\": [\n";
      for (std::size_t c = 0; c < plan.candidates.size(); ++c) {
        const bist::SchedulePoint& sp = plan.candidates[c];
        js << "          {\"length\": " << sp.length
           << ", \"topoff_patterns\": " << sp.topoff_patterns
           << ", \"test_time\": " << sp.test_time
           << ", \"rom_bits\": " << sp.rom_bits
           << ", \"area_bits\": " << sp.area_bits
           << ", \"knee_distance\": " << json_num(sp.knee_distance)
           << ", \"within_budget\": " << (sp.within_budget ? "true" : "false")
           << "}" << (c + 1 < plan.candidates.size() ? "," : "") << "\n";
      }
      js << "        ],\n"
         << "        \"selfsim_cycles\": " << wv.cycles << ",\n"
         << "        \"selfsim_coverage\": " << json_num(wv.achieved_coverage)
         << ",\n"
         << "        \"selfsim_coverage_weighted\": "
         << json_num(wv.achieved_coverage_weighted) << ",\n"
         << "        \"lfsr_phase_identical\": "
         << (wv.lfsr_phase_identical ? "true" : "false") << ",\n"
         << "        \"topoff_identical\": "
         << (wv.topoff_identical ? "true" : "false") << ",\n"
         << "        \"coverage_identical\": "
         << (wv.coverage_identical ? "true" : "false") << ",\n"
         << "        \"seeds_identical\": "
         << (wv.seeds_identical ? "true" : "false") << ",\n"
         << "        \"signature_identical\": "
         << (wv.signature_identical ? "true" : "false") << ",\n"
         << "        \"wrapper_matches_plan\": "
         << (wv.ok() ? "true" : "false") << ",\n"
         << "        \"schedule_seconds\": " << json_num(sched_secs) << ",\n"
         << "        \"synth_seconds\": " << json_num(synth_secs) << ",\n"
         << "        \"selfsim_seconds\": " << json_num(selfsim_secs)
         << "\n      }";
    }
    js << "\n    }";

    if (plot) {
      bist::Series s;
      s.name = name + " coverage";
      // Coverage after patterns [0..p]: the running count of first
      // detections, sampled at up to 256 points.
      std::vector<std::size_t> hits(fr.patterns, 0);
      for (const std::int64_t fd : fr.first_detected)
        if (fd >= 0) ++hits[std::size_t(fd)];
      const std::size_t step = std::max<std::size_t>(1, fr.patterns / 256);
      std::size_t running = 0;
      for (std::size_t p = 0; p < fr.patterns; ++p) {
        running += hits[p];
        if (p % step) continue;
        s.x.push_back(double(p + 1));
        s.y.push_back(100 * (fr.sim_faults ? double(running) /
                                                 double(fr.sim_faults)
                                           : 0.0));
      }
      bist::PlotOptions po;
      po.title = name + ": stuck-at coverage vs. LFSR patterns";
      po.x_label = "patterns";
      po.y_label = "%";
      po.y_from_zero = true;
      std::cout << bist::ascii_plot({s}, po);

      // The scheduler's trade-off curves over the (deduplicated, sorted)
      // candidate set, so the knee the plan picked is visible in CI logs.
      if (have_plan && plan.candidates.size() >= 2) {
        bist::Series cov, rom, abits;
        cov.name = "final coverage %";
        rom.name = "topoff ROM patterns";
        abits.name = "area bits (ROM + state)";
        rom.marker = 'o';
        abits.marker = '+';
        for (const bist::SchedulePoint& sp : plan.candidates) {
          cov.x.push_back(double(sp.length));
          cov.y.push_back(100 * sp.final_coverage);
          rom.x.push_back(double(sp.length));
          rom.y.push_back(double(sp.topoff_patterns));
          abits.x.push_back(double(sp.length));
          abits.y.push_back(double(sp.area_bits));
        }
        bist::PlotOptions pc;
        pc.title = name + ": final coverage vs. LFSR length (knee at L=" +
                   std::to_string(plan.lfsr_patterns) + ")";
        pc.x_label = "LFSR length";
        pc.y_label = "%";
        std::cout << bist::ascii_plot({cov}, pc);
        bist::PlotOptions pr;
        pr.title = name + ": ROM cost vs. LFSR length (knee at L=" +
                   std::to_string(plan.lfsr_patterns) + ")";
        pr.x_label = "LFSR length";
        pr.y_label = "cost";
        pr.y_from_zero = true;
        std::cout << bist::ascii_plot({rom, abits}, pr);
      }
    }
  }

  js << "\n  ],\n  \"c6288_speedup_kernel_over_seed\": "
     << json_num(c6288_speedup) << "\n}\n";

  if (!write_text(cfg.out_path, js.str())) {
    std::cerr << "error: could not write " << cfg.out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << cfg.out_path << "\n";
  if (!all_verified) {
    std::cerr << "error: some top-off pattern failed fault-sim verification\n";
    return 1;
  }
  if (any_error) {
    std::cerr << "error: a job ended in an Error status\n";
    return 1;
  }
  return 0;
}

}  // namespace
