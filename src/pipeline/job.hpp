#pragma once
// Fault-tolerant pipeline execution: one circuit's full plan job — parse ->
// sweep -> schedule -> synth -> verify — as a unit that NEVER throws, with
// per-stage isolation, wall-clock accounting and status, cooperative
// deadlines, and an anytime degradation ladder.
//
// Failure containment is the point of this layer: a malformed netlist, a
// logic error in one stage, or an injected fault (see set_injected_failure)
// is caught at the stage boundary, recorded in the JobReport, and the job
// returns normally — so JobService (service/) can push many circuits through
// one WorkerPool and a poisoned job can never take its neighbors (or the
// pool) down with it.  Deadlines degrade instead of failing: a sweep cut short
// still yields a schedulable (possibly LFSR-only) plan and a verified
// wrapper, per run_mixed_sweep's anytime contract.
//
// Durability (store/):
//  - a JobSpec carrying a ResultStore consults it before the sweep stage
//    (a hit skips the whole LFSR+PODEM cost) and publishes after it; only
//    fully Complete, status-Ok sweeps are published, so a cached result is
//    always bit-identical to a fresh computation.  Corrupt records
//    quarantine and recompute — noted in the sweep StageReport, never an
//    error;
//  - stage exceptions classified transient (TransientError, I/O-shaped
//    system_errors) are retried with deterministic bounded backoff under
//    RetryPolicy; deterministic failures (parse errors, logic bugs) fail
//    fast on the first attempt, and deadline stops are never retried (the
//    budget is already spent);
//  - JobService, given a manifest path, journals every completed-Ok job to
//    an append-only checkpoint file (store/manifest), and with `resume`
//    replays journaled jobs from it at admission — a SIGKILLed run restarts
//    from where it died.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bist/schedule.hpp"
#include "bist/verify.hpp"
#include "netlist/bench_io.hpp"
#include "tpg/sweep.hpp"
#include "util/deadline.hpp"
#include "util/hash.hpp"

namespace bist {

class ResultStore;
class FileOps;

/// Throw this (or an I/O-shaped std::system_error) from a stage to mark the
/// failure as retryable.  Anything else fails fast.
struct TransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Classifier behind the retry loop: TransientError, or a std::system_error
/// whose condition is I/O-shaped (EAGAIN, EINTR, EIO, ETIMEDOUT, EBUSY,
/// ENOSPC).
bool is_transient_error(const std::exception& e);

/// Bounded deterministic retry for transient stage failures: attempt k
/// (1-based) sleeps backoff_s * multiplier^(k-1) before re-running.  The
/// default (1 attempt) disables retries.
struct RetryPolicy {
  unsigned attempts = 1;   ///< total tries per stage, including the first
  double backoff_s = 0.01; ///< sleep before the first retry, seconds
  double multiplier = 2.0; ///< backoff growth per retry
};

/// Everything run_plan_job needs, self-contained (the .bench text travels
/// with the spec so the parse stage — and its failures — belong to the job).
struct JobSpec {
  std::string name;        ///< circuit/job name, used in reports and matching
  std::string bench_text;  ///< .bench source; parsed inside the job
  std::vector<std::size_t> sweep_lengths;
  /// Mixed-scheme knobs for the sweep stage.  Deadlines are owned by the
  /// job (see below) so one Deadline covers the whole pipeline consistently.
  MixedTpgOptions tpg;
  ScheduleOptions schedule;
  BenchLimits limits;  ///< parse-stage input validation caps
  /// Anytime deadline over the sweep stage in seconds; <= 0 = none.  When it
  /// fires the sweep degrades (LfsrOnly/Skipped points, anytime floor) and
  /// the job still produces a schedulable plan + verified wrapper, with
  /// overall status DeadlineExceeded and report.degraded set.
  double sweep_deadline_s = 0;
  /// Whole-job wall-clock limit in seconds; <= 0 = none.  One Deadline,
  /// armed at job start, is checked at every stage boundary, bounds the
  /// sweep's anytime deadline, and is handed as is to synthesis and
  /// verification (which poll it mid-loop and stop with a DeadlineExceeded
  /// stage status instead of blowing the budget).
  double job_timeout_s = 0;
  /// Optional external cancel; observed by the job's deadline, so every
  /// stage and stage boundary polls it.  Not owned; may be null.  Not const:
  /// the `cancel` injection (set_injected_failure) fires it.
  CancelToken* cancel = nullptr;
  /// Sweep-result cache consulted/published around the sweep stage (see the
  /// durability notes above).  Not owned; may be null (no caching).
  ResultStore* store = nullptr;
  RetryPolicy retry;  ///< transient-failure retry, all stages
};

/// One pipeline stage as it actually ran.
struct StageReport {
  std::string name;    ///< parse | sweep | schedule | synth | verify
  StageStatus status;  ///< Ok, or why the stage stopped/failed/was not run
  double seconds = 0;  ///< wall clock inside the stage, all attempts
                       ///< (not persisted: 0 on a manifest replay)
  unsigned attempts = 1;  ///< tries the retry loop spent (1 = first try won)
  std::string note;    ///< cache/quarantine/retry annotations, "" if none
};

/// Where the sweep stage's data came from and what the store did about it.
struct CacheOutcome {
  bool consulted = false;    ///< a store was attached to the job
  bool hit = false;          ///< sweep served from the store
  bool stored = false;       ///< sweep published to the store
  bool quarantined = false;  ///< a corrupt record was set aside (then miss)
  bool manifest = false;     ///< whole report replayed from a batch manifest
  std::string note;          ///< human-readable cache verdict, "" if none
};

/// The synth stage's exact accounting of the wrapper it built (the
/// BistSynthResult fields, without the netlist itself).
struct SynthAccounting {
  BistArea actual;                ///< exact GE per block, state bits as FFs
  std::size_t bist_gates = 0;     ///< emitted BIST logic gates (CUT excluded)
  std::size_t counter_bits = 0;   ///< cycle-counter width
  std::size_t wrapper_gates = 0;  ///< whole wrapper, CUT copy included
};

struct JobReport {
  std::string name;
  /// Overall verdict: Ok when every stage ran clean; DeadlineExceeded /
  /// Cancelled when a deadline or cancel shaped the outcome but the pipeline
  /// still delivered (check `degraded` and `wrapper_ok`); Error when a stage
  /// threw — `stages` then shows exactly which one, and every later stage
  /// carries an Error status saying it was not run.
  StageStatus status;
  bool degraded = false;    ///< plan came from the LfsrOnly anytime tier
  bool wrapper_ok = false;  ///< verify stage ran and the wrapper checked out
  std::vector<StageReport> stages;  ///< in pipeline order, stages entered or
                                    ///< explicitly skipped at a boundary
  MixedSweepResult sweep;   ///< valid once the sweep stage succeeded
  BistPlan plan;            ///< valid once the schedule stage succeeded
  WrapperVerification verification;  ///< valid once the verify stage ran
  SynthAccounting synth;      ///< valid once the synth stage built a wrapper
  std::string wrapper_bench;  ///< write_bench of the wrapper; empty if unbuilt
  double seconds = 0;         ///< whole-job wall clock (not persisted)
  CacheOutcome cache;         ///< store/manifest interaction of this job
};

/// Canonical job identity for the batch manifest: a digest of every
/// result-affecting JobSpec field (name, bench text, sweep lengths, tpg and
/// schedule knobs, parse limits).  Wall-clock shaping (deadlines, timeouts,
/// cancel) and engine speed knobs are excluded — only status-Ok jobs are
/// checkpointed, and for those the result is deadline-independent — and so
/// are schedule.lfsr_degree/lfsr_seed, which run_plan_job overwrites from
/// the tpg knobs.
Digest128 job_key(const JobSpec& spec);

/// Run the five-stage pipeline for one circuit.  NEVER throws: every stage
/// body is exception-isolated and failures are reported in the returned
/// JobReport.  Deterministic result payloads for a given spec (timings and
/// deadline-shaped outcomes excepted).
JobReport run_plan_job(const JobSpec& spec);

/// What an armed injection does at the entry of its stage.
enum class InjectedFailure : std::uint8_t {
  Error,      ///< throw std::runtime_error: the stage fails fast
  Transient,  ///< throw TransientError, exercising the retry loop
  /// Cancel the job's own token (JobSpec::cancel; a job without one is
  /// untouched).  It fires after the between-stage check, so the stage's
  /// own polls must catch it.
  Cancel,
};

/// Fault-injection hook for the containment test suite.  After
/// set_injected_failure("sweep", "c880"), the sweep stage of any job named
/// "c880" throws std::runtime_error at entry; every other job and stage is
/// untouched.  Empty circuit matches every job.  `times` bounds how many
/// injections fire before the hook disarms itself (-1 = unlimited); `kind`
/// picks what an injection does.  The hook is process-global and sticky
/// until cleared; it is inert (one relaxed atomic load per stage) when
/// unset.  Test-only, but always compiled so release builds exercise the
/// same code path.
void set_injected_failure(std::string stage, std::string circuit,
                          int times = -1,
                          InjectedFailure kind = InjectedFailure::Error);
void clear_injected_failure();

}  // namespace bist
