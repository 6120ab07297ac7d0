#include "pipeline/job.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "bist/synth.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "store/result_store.hpp"
#include "util/wallclock.hpp"

namespace bist {
namespace {

// ---- fault-injection hook --------------------------------------------------
// One mutex-guarded (stage, circuit) tuple plus a relaxed "armed" flag so the
// disarmed fast path costs a single atomic load per stage entry.  `times`
// counts down per fired injection (-1 = unlimited) so a test can inject a
// failure that heals — the substrate of the retry-recovery tests.

std::mutex g_inject_mutex;
std::string g_inject_stage;
std::string g_inject_circuit;
int g_inject_times = -1;
InjectedFailure g_inject_kind = InjectedFailure::Error;
std::atomic<bool> g_inject_armed{false};

void maybe_inject(const char* stage, const std::string& circuit,
                  CancelToken* token) {
  if (!g_inject_armed.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(g_inject_mutex);
  if (g_inject_stage != stage ||
      (!g_inject_circuit.empty() && g_inject_circuit != circuit))
    return;
  if (g_inject_times == 0) return;
  if (g_inject_times > 0 && --g_inject_times == 0)
    g_inject_armed.store(false, std::memory_order_relaxed);
  const std::string what = "injected failure: stage '" + g_inject_stage +
                           "' circuit '" + circuit + "'";
  switch (g_inject_kind) {
    case InjectedFailure::Error: throw std::runtime_error(what);
    case InjectedFailure::Transient: throw TransientError(what);
    case InjectedFailure::Cancel:
      if (token) token->cancel();
      return;
  }
}

// ---- stage runner ----------------------------------------------------------

constexpr const char* kStageNames[] = {"parse", "sweep", "schedule", "synth",
                                       "verify"};

// Retry backoff that observes the job deadline/cancel: sleep in short slices
// polling should_stop(), so a cancelled job stops waiting within one slice
// instead of sleeping through its full exponential backoff.  Returns false
// when the wait was interrupted (the retry loop must then give up).
bool interruptible_backoff(double seconds, const Deadline& job_dl) {
  constexpr double kSliceS = 0.01;
  const auto t0 = WallClock::now();
  while (seconds_since(t0) < seconds) {
    if (job_dl.should_stop()) return false;
    const double left = seconds - seconds_since(t0);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(kSliceS, left)));
  }
  return !job_dl.should_stop();
}

// Run one stage body under the job's isolation contract: wall-clock it,
// catch anything it throws, and record a StageReport.  Exceptions classified
// transient retry under `retry` (deterministic backoff); everything else
// fails fast.  A job stopped before a retry could run (deadline or cancel,
// also during the backoff) ends the stage with the stop status, the last
// error kept in the note: the budget is spent, the stage did not fail.  The
// body receives its StageReport so it can attach notes (cache verdicts,
// quarantine messages).
template <class Body>
void run_stage(JobReport& rep, const char* name, const std::string& circuit,
               const RetryPolicy& retry, const Deadline& job_dl,
               CancelToken* token, Body&& body) {
  StageReport sr;
  sr.name = name;
  const auto t0 = WallClock::now();
  const unsigned max_attempts = std::max(1u, retry.attempts);
  double backoff_s = retry.backoff_s;
  for (unsigned attempt = 1;; ++attempt) {
    sr.attempts = attempt;
    try {
      maybe_inject(name, circuit, token);
      sr.status = body(sr);  // body returns the stage's own status verdict
      break;
    } catch (const std::exception& e) {
      sr.status = StageStatus::error(std::string(name) + ": " + e.what());
      if (!is_transient_error(e) || attempt >= max_attempts) break;
      if (!sr.note.empty()) sr.note += "; ";
      if (job_dl.should_stop() ||
          (backoff_s > 0 && !interruptible_backoff(backoff_s, job_dl))) {
        sr.note += "retry abandoned, job stopped; last error: " +
                   std::string(e.what());
        sr.status = job_dl.stop_status(name);
        break;
      }
      sr.note += "transient failure, retrying: " + std::string(e.what());
      backoff_s *= retry.multiplier;
    } catch (...) {
      sr.status = StageStatus::error(std::string(name) + ": unknown exception");
      break;
    }
  }
  sr.seconds = seconds_since(t0);
  rep.stages.push_back(std::move(sr));
}

// Mark the stages after a failure/stop as not run, so the report always
// lists all five stages and says why each missing one is missing.
void mark_not_run(JobReport& rep, const std::string& why) {
  for (std::size_t i = rep.stages.size(); i < 5; ++i) {
    StageReport sr;
    sr.name = kStageNames[i];
    sr.status = StageStatus::error("not run: " + why);
    rep.stages.push_back(std::move(sr));
  }
}

// Every point Complete — the publish gate: only full-fidelity sweeps become
// cache records (a deadline-shaped result is wall-clock-shaped, not
// canonical, and must never be served as one).
bool sweep_is_canonical(const MixedSweepResult& s) {
  if (!s.status.ok()) return false;
  for (const MixedSchemeResult& p : s.points)
    if (p.state != PointState::Complete || !p.status.ok()) return false;
  return true;
}

}  // namespace

bool is_transient_error(const std::exception& e) {
  if (dynamic_cast<const TransientError*>(&e) != nullptr) return true;
  const auto* se = dynamic_cast<const std::system_error*>(&e);
  if (!se) return false;
  const std::error_condition c = se->code().default_error_condition();
  if (c.category() != std::generic_category()) return false;
  switch (static_cast<std::errc>(c.value())) {
    case std::errc::resource_unavailable_try_again:  // EAGAIN
    case std::errc::interrupted:                     // EINTR
    case std::errc::io_error:                        // EIO
    case std::errc::timed_out:                       // ETIMEDOUT
    case std::errc::device_or_resource_busy:         // EBUSY
    case std::errc::no_space_on_device:              // ENOSPC
      return true;
    default:
      return false;
  }
}

Digest128 job_key(const JobSpec& spec) {
  Hasher h;
  h.str("bist-job-key");
  h.u32(kStoreFormatVersion);
  h.str(spec.name);
  h.str(spec.bench_text);
  h.u64(spec.sweep_lengths.size());
  for (const std::size_t l : spec.sweep_lengths) h.u64(l);
  hash_tpg_options(h, spec.tpg);
  // Schedule knobs.
  h.u8(static_cast<std::uint8_t>(spec.schedule.objective));
  h.u64(spec.schedule.test_time_budget);
  h.f64(spec.schedule.time_weight);
  h.f64(spec.schedule.area_weight);
  h.f64(spec.schedule.area.and2);
  h.f64(spec.schedule.area.xor2);
  h.f64(spec.schedule.area.not1);
  h.f64(spec.schedule.area.buf1);
  h.f64(spec.schedule.area.flipflop);
  // Parse limits (they decide whether the parse stage accepts the text).
  h.u64(spec.limits.max_name_len);
  h.u64(spec.limits.max_fanins);
  h.u64(spec.limits.max_gates);
  return h.digest();
}

void set_injected_failure(std::string stage, std::string circuit, int times,
                          InjectedFailure kind) {
  std::lock_guard<std::mutex> lock(g_inject_mutex);
  g_inject_stage = std::move(stage);
  g_inject_circuit = std::move(circuit);
  g_inject_times = times;
  g_inject_kind = kind;
  g_inject_armed.store(true, std::memory_order_relaxed);
}

void clear_injected_failure() {
  std::lock_guard<std::mutex> lock(g_inject_mutex);
  g_inject_stage.clear();
  g_inject_circuit.clear();
  g_inject_times = -1;
  g_inject_kind = InjectedFailure::Error;
  g_inject_armed.store(false, std::memory_order_relaxed);
}

JobReport run_plan_job(const JobSpec& spec) {
  JobReport rep;
  rep.name = spec.name;
  const auto job_t0 = WallClock::now();

  // Whole-job deadline: checked at stage boundaries, tightened into the
  // sweep deadline, and handed to synth/verify.  An unset timeout still
  // observes the cancel token; with neither, the stages get nullptr and skip
  // the polling entirely.
  Deadline job_dl = spec.job_timeout_s > 0 ? Deadline::after(spec.job_timeout_s)
                                           : Deadline();
  job_dl.observe(spec.cancel);
  const Deadline* const stage_dl =
      (spec.job_timeout_s > 0 || spec.cancel) ? &job_dl : nullptr;

  // Stage-boundary gate: when the job deadline/cancel has fired, the next
  // stage is recorded as stopped (not Error — the job was told to stop) and
  // the pipeline ends.
  const auto boundary_stop = [&](const char* stage) {
    if (!job_dl.should_stop()) return false;
    StageReport sr;
    sr.name = stage;
    sr.status = job_dl.stop_status(stage);
    rep.stages.push_back(std::move(sr));
    mark_not_run(rep, "job stopped at stage '" + std::string(stage) + "'");
    rep.status = job_dl.stop_status("job");
    return true;
  };

  // A stage that ended without its result: the later stages are not run,
  // and when it stopped rather than failed, the job stopped too.
  const auto end_after = [&](const char* stage) {
    const bool failed = rep.stages.back().status.code == StageCode::Error;
    mark_not_run(rep, std::string(stage) + (failed ? " failed" : " stopped"));
    if (!failed) rep.status = job_dl.stop_status("job");
  };

  // --- parse ---------------------------------------------------------------
  Netlist cut;
  bool have_cut = false;
  if (!boundary_stop("parse")) {
    run_stage(rep, "parse", spec.name, spec.retry, job_dl, spec.cancel,
              [&](StageReport&) {
      cut = read_bench(spec.bench_text, spec.name, spec.limits);
      have_cut = true;
      return StageStatus{};
    });
    if (!have_cut) end_after("parse");
  }

  // --- sweep ---------------------------------------------------------------
  bool have_sweep = false;
  if (have_cut && rep.stages.size() < 2 && !boundary_stop("sweep")) {
    run_stage(rep, "sweep", spec.name, spec.retry, job_dl, spec.cancel,
              [&](StageReport& sr) {
      // Store consult: a hit replaces the whole LFSR+PODEM computation with
      // the cached (bit-identical, publish-gated) result.  A quarantined
      // record degrades to a recompute with the verdict noted.
      Digest128 key;
      if (spec.store) {
        rep.cache.consulted = true;
        key = sweep_cache_key(cut, spec.sweep_lengths, spec.tpg);
        ResultStore::SweepLookup lk = spec.store->load_sweep(key);
        if (lk.outcome == ResultStore::SweepLookup::Outcome::Hit) {
          rep.sweep = std::move(lk.sweep);
          rep.cache.hit = true;
          rep.cache.note = lk.note;
          sr.note = std::move(lk.note);
          have_sweep = true;
          return rep.sweep.status;  // Ok by the publish gate
        }
        if (lk.outcome == ResultStore::SweepLookup::Outcome::Quarantined) {
          rep.cache.quarantined = true;
          rep.cache.note = lk.note;
          sr.note = std::move(lk.note);
        }
      }

      // The sweep's anytime deadline is the job deadline, tightened by the
      // per-stage sweep deadline when one is set.  run_mixed_sweep degrades
      // rather than fails, so this stage only Errors on a genuine exception.
      const Deadline sweep_dl = spec.sweep_deadline_s > 0
                                    ? job_dl.within(spec.sweep_deadline_s)
                                    : job_dl;
      const SimKernel kernel(cut);
      rep.sweep = run_mixed_sweep(
          kernel, spec.sweep_lengths, spec.tpg,
          spec.sweep_deadline_s > 0 ? &sweep_dl : stage_dl);
      have_sweep = true;

      // Publish — full-fidelity results only (see sweep_is_canonical).  A
      // failed publish costs nothing but future recomputation.
      if (spec.store && sweep_is_canonical(rep.sweep)) {
        std::string note;
        if (spec.store->store_sweep(key, rep.sweep, &note)) {
          rep.cache.stored = true;
        } else if (!note.empty()) {
          if (!sr.note.empty()) sr.note += "; ";
          sr.note += note;
          rep.cache.note = sr.note;
        }
      }
      return rep.sweep.status;  // Ok, or the anytime stop reason
    });
    if (!have_sweep) end_after("sweep");
  }

  // --- schedule ------------------------------------------------------------
  bool have_plan = false;
  if (have_sweep && rep.stages.size() < 3 && !boundary_stop("schedule")) {
    run_stage(rep, "schedule", spec.name, spec.retry, job_dl, spec.cancel,
              [&](StageReport&) {
      ScheduleOptions so = spec.schedule;
      so.lfsr_degree = spec.tpg.lfsr_degree;
      so.lfsr_seed = spec.tpg.lfsr_seed;
      rep.plan = schedule_bist(rep.sweep, rep.sweep.width, so);
      rep.degraded = rep.plan.degraded;
      have_plan = true;
      return StageStatus{};
    });
    if (!have_plan) end_after("schedule");
  }

  // --- synth ---------------------------------------------------------------
  Netlist wrapper;
  bool have_wrapper = false;
  if (have_plan && rep.stages.size() < 4 && !boundary_stop("synth")) {
    run_stage(rep, "synth", spec.name, spec.retry, job_dl, spec.cancel,
              [&](StageReport&) {
      BistSynthResult syn = synthesize_bist_wrapper(cut, rep.plan, stage_dl);
      if (!syn.status.ok()) return syn.status;  // mid-stage soft stop
      rep.synth = {syn.actual, syn.bist_gates, syn.counter_bits,
                   syn.wrapper.gate_count()};
      wrapper = std::move(syn.wrapper);
      rep.wrapper_bench = write_bench(wrapper);
      have_wrapper = true;
      return StageStatus{};
    });
    if (!have_wrapper) end_after("synth");
  }

  // --- verify --------------------------------------------------------------
  if (have_wrapper && rep.stages.size() < 5 && !boundary_stop("verify")) {
    run_stage(rep, "verify", spec.name, spec.retry, job_dl, spec.cancel,
              [&](StageReport&) {
      rep.verification = verify_wrapper(
          wrapper, cut, rep.plan, rep.sweep.points[rep.plan.point_index],
          spec.tpg.fsim, stage_dl);
      if (!rep.verification.status.ok())
        return rep.verification.status;  // mid-stage soft stop
      rep.wrapper_ok = rep.verification.ok();
      if (!rep.wrapper_ok)
        return StageStatus::error("verify: wrapper does not match the plan");
      return StageStatus{};
    });
  }

  // --- overall verdict -----------------------------------------------------
  // Error anywhere dominates; else the first deadline/cancel stop; else Ok.
  if (rep.status.ok()) {
    for (const StageReport& sr : rep.stages)
      if (sr.status.code == StageCode::Error) {
        rep.status = StageStatus::error("stage '" + sr.name +
                                        "' failed: " + sr.status.message);
        break;
      }
  }
  if (rep.status.ok()) {
    for (const StageReport& sr : rep.stages)
      if (!sr.status.ok()) {
        rep.status = sr.status;
        break;
      }
  }
  rep.seconds = seconds_since(job_t0);
  return rep;
}

}  // namespace bist
