#pragma once
// Resilient long-lived job service over run_plan_job: bounded intake with
// backpressure, deterministic fairness, a timeout watchdog, graceful drain,
// and restart recovery from the batch manifest.
//
// JobService is the one executor for many jobs: a frozen corpus (the
// bench's --jobs submits every spec, then drains) and a stream of work that
// never ends (--serve) run through the same admission, workers and journal.
// Submissions arrive from any thread, are admitted against a bounded queue,
// and execute on a persistent WorkerPool while the caller moves on.  The
// design goal is that NOTHING a client submits — malformed netlists,
// poisoned stages, wedged jobs, floods far past capacity — can take the
// service down or silently lose an accepted job.  Every submission produces
// exactly ONE report through the sink:
//
//   accepted  -> runs on a worker; report streamed on completion (Ok, Error,
//                DeadlineExceeded, or Cancelled — including watchdog kills
//                and jobs dropped at the drain deadline);
//   replayed  -> key found in the resume manifest; the journaled report is
//                streamed immediately with cache.manifest set (no execution);
//   rejected  -> shed at admission with StageCode::Rejected and a message
//                saying why (overloaded / quarantined / not accepting), so
//                shed load is distinguishable from failed work everywhere.
//
// Backpressure.  The queue has a high-water mark (ServiceOptions::
// queue_limit); a submission that would exceed it is rejected FAST — no
// blocking, no buffering — and the caller learns immediately via
// SubmitCode::Overloaded.  Within the queue, scheduling is deterministically
// fair (FairQueue below): strict priority tiers, round-robin across clients
// inside a tier, FIFO per client.  A flood from one client delays only that
// client once the tiers interleave.
//
// Watchdog.  A monitor thread scans in-flight jobs every kWatchdogPollS and
// fires a job's CancelToken once it is kWatchdogGraceS past its timeout (the
// job's own job_timeout_s, else ServiceOptions::watchdog_timeout_s).  A job
// with its own timeout polls that deadline and stops itself within the
// grace, so only a job that overruns is killed.  Jobs whose name accumulates
// quarantine_after watchdog kills are quarantined: further submissions of
// that name are rejected at admission (SubmitCode::Quarantined).
//
// Drain.  drain(deadline_s) stops intake, lets queued + in-flight work
// finish, and — if the deadline passes first — cancels in-flight jobs and
// drops the remaining queue, emitting a Cancelled report for every dropped
// job so accepted work is never silently lost.  Drain always terminates:
// the wait after the deadline is bounded by the pipeline's cooperative
// cancellation latency, not by job length.  A final health snapshot is
// written before the service reports Stopped.
//
// Recovery.  With a manifest path, every Ok job is journaled (append-only,
// fsync'd, torn-tail tolerant) BEFORE its report is streamed; with resume,
// admissions whose job_key is already journaled replay instantly.  A killed
// service restarted with resume therefore re-serves completed work without
// re-running it — the kill-and-restart differential in CI proves the union
// of streamed reports matches a cold batch run byte for byte (volatile
// fields stripped).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pipeline/job.hpp"
#include "store/result_store.hpp"
#include "util/fileio.hpp"
#include "util/parallel.hpp"
#include "util/wallclock.hpp"

namespace bist {

class BatchManifest;

/// One queued submission with its fairness coordinates.
struct QueuedJob {
  JobSpec spec;
  std::string client;       ///< fairness identity; "" is a client like any
  int priority = 0;         ///< higher runs first (strict tiers)
  std::uint64_t ticket = 0; ///< admission order, unique per service lifetime
};

/// Deterministic fair scheduler: strict priority tiers (higher first);
/// round-robin across clients within a tier (a client goes to the back of
/// its tier after every pop, so one flooding client cannot starve the
/// others); FIFO within a client.  Pop order is a pure function of the push
/// sequence — no clocks, no randomness — so fairness is unit-testable
/// exactly.  Not thread-safe; JobService guards it with its own mutex.
class FairQueue {
 public:
  void push(QueuedJob j);
  /// Pop the next job per the fairness policy; false when empty.
  bool pop(QueuedJob& out);
  std::size_t size() const { return size_; }
  /// Remove and return everything, in the exact order pop() would have
  /// yielded it (drain-deadline drop path).
  std::vector<QueuedJob> drain_all();

 private:
  struct ClientQ {
    std::string client;
    std::deque<QueuedJob> jobs;
  };
  /// priority -> round-robin ring of per-client FIFOs, highest tier first.
  std::map<int, std::list<ClientQ>, std::greater<int>> tiers_;
  std::size_t size_ = 0;
};

/// Admission verdict, returned synchronously from submit().
enum class SubmitCode : std::uint8_t {
  Accepted,     ///< queued; report arrives through the sink on completion
  Replayed,     ///< served from the resume manifest; report already emitted
  Overloaded,   ///< queue at high-water mark; rejected fast (backpressure)
  Quarantined,  ///< job name exceeded the watchdog offense budget
  NotAccepting, ///< service is draining or stopped
};

std::string_view submit_code_name(SubmitCode c);

struct SubmitResult {
  SubmitCode code = SubmitCode::NotAccepting;
  std::uint64_t ticket = 0;  ///< admission sequence number (all outcomes)
};

/// Watchdog grace past a job's timeout before its cancel fires.
inline constexpr double kWatchdogGraceS = 0.25;
/// Watchdog scan cadence.
inline constexpr double kWatchdogPollS = 0.02;

struct ServiceOptions {
  unsigned threads = 0;        ///< worker count; resolve_threads semantics
  std::size_t queue_limit = 64;///< queue high-water mark (bounded intake)
  /// Watchdog timeout for jobs whose spec carries no job_timeout_s; <= 0
  /// leaves such jobs unwatched (they can still be cancelled by drain).
  double watchdog_timeout_s = 0;
  /// Watchdog kills of the same job name before it is quarantined; <= 0
  /// disables quarantine.
  int quarantine_after = 3;
  ResultStore* store = nullptr;  ///< sweep cache for jobs without one
  std::string manifest_path;     ///< completed-Ok journal; empty = none
  bool resume = false;           ///< replay journaled keys at admission
  FileOps* ops = nullptr;        ///< manifest/health I/O; nullptr = real
  std::string health_path;       ///< periodic health snapshot; empty = none
  double health_period_s = 0;    ///< <= 0: final snapshot only
};

/// Counter snapshot; every submission is accounted for exactly once:
///   submitted == accepted + replayed + rejected_*            (admission)
///   accepted  == completed_* + drain_dropped + in_flight + queue_depth
struct ServiceHealth {
  std::string state;           ///< running | draining | stopping | stopped
  double uptime_s = 0;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t replayed = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_error = 0;
  std::uint64_t completed_stopped = 0;  ///< deadline/cancel-shaped outcomes
  std::uint64_t drain_dropped = 0;      ///< accepted, dropped at drain deadline
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_quarantine = 0;
  std::uint64_t rejected_stopping = 0;
  std::uint64_t retried_jobs = 0;    ///< jobs where any stage took > 1 attempt
  std::uint64_t watchdog_kills = 0;
  std::uint64_t quarantined_names = 0;
  bool has_store = false;
  StoreStats store;  ///< valid when has_store
};

/// One-line JSON rendering of a health snapshot (the health-file schema).
std::string health_json(const ServiceHealth& h);

class JobService {
 public:
  /// Streamed-report sink, called exactly once per submission (see header
  /// notes), serialized under an internal mutex so concurrent completions
  /// never interleave.  Must not throw; a throwing sink is contained and
  /// counted, not propagated.
  using Sink = std::function<void(const JobReport&)>;

  JobService(ServiceOptions opt, Sink sink);
  /// Hard-drains (deadline 0: cancel in-flight, drop the queue) if the
  /// service was not drained explicitly.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Admit one job (thread-safe, non-blocking).  The service owns the job's
  /// cancellation: spec.cancel is replaced with a service-managed token, and
  /// spec.store defaults to the service store when unset.  Rejected and
  /// replayed submissions emit their report through the sink before this
  /// returns.
  SubmitResult submit(JobSpec spec, std::string client = {}, int priority = 0);

  /// Stop intake and run down the queue.  deadline_s < 0 waits forever;
  /// otherwise, when the deadline passes, in-flight jobs are cancelled and
  /// the remaining queue is dropped (each dropped job emits a Cancelled
  /// report).  Terminates in bounded time for deadline_s >= 0; idempotent.
  void drain(double deadline_s);

  ServiceHealth health() const;
  bool accepting() const;
  /// Names currently refused at admission (watchdog offense budget spent).
  std::vector<std::string> quarantined() const;

 private:
  enum class State : std::uint8_t { Running, Draining, Stopping, Stopped };

  struct Inflight {
    std::string name;
    CancelToken token;
    WallClock::time_point start{};
    double timeout_s = 0;  ///< effective watchdog timeout; <= 0 unwatched
    bool killed = false;   ///< watchdog fired (once per job)
  };

  void worker_loop();
  void monitor_loop();
  void emit(const JobReport& rep);
  JobReport rejection_report(const std::string& name, SubmitCode code) const;
  ServiceHealth health_locked() const;  ///< callers hold mu_
  void write_health_file();

  ServiceOptions opt_;
  Sink sink_;
  FileOps* ops_;
  std::unique_ptr<BatchManifest> manifest_;
  const WallClock::time_point start_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers: queue / state changes
  std::condition_variable cv_drain_;  ///< drain: completions
  State state_ = State::Running;
  FairQueue queue_;
  std::map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  std::map<std::string, int> offenses_;  ///< watchdog kills per job name
  std::set<std::string> quarantined_;
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t completed_error_ = 0;
  std::uint64_t completed_stopped_ = 0;
  std::uint64_t drain_dropped_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t rejected_quarantine_ = 0;
  std::uint64_t rejected_stopping_ = 0;
  std::uint64_t retried_jobs_ = 0;
  std::uint64_t watchdog_kills_ = 0;

  std::mutex emit_mu_;   ///< serializes sink calls (no interleaved streams)
  std::uint64_t sink_errors_ = 0;  ///< guarded by emit_mu_

  std::mutex mon_mu_;    ///< monitor wakeup only
  std::condition_variable cv_monitor_;
  bool monitor_stop_ = false;  ///< guarded by mon_mu_

  std::mutex drain_mu_;  ///< serializes concurrent drain() calls

  WorkerPool pool_;
  std::thread runner_;   ///< hosts pool_.run(worker_loop) for the lifetime
  std::thread monitor_;
};

}  // namespace bist
