// Chaos campaign for the resilient job service: deterministic fairness,
// bounded intake with fast Overloaded shedding, the per-stage fault-injection
// matrix (deterministic / transient-healing / transient-exhausting / cancel
// across all five pipeline stages), file-fault containment (failed manifest appends and
// health publishes degrade, never crash), watchdog kills + quarantine
// escalation (a job that meets its own deadline is never a kill),
// drain-always-terminates (clean and deadline-forced), and the
// kill-and-restart manifest replay differential.  The cross-cutting
// invariants, checked after every scenario:
//
//   - every submission produces exactly ONE report through the sink;
//   - submitted == accepted + replayed + rejected_*  and
//     accepted  == completed_* + drain_dropped (once drained);
//   - an accepted job is never silently lost (dropped jobs still report);
//   - drain terminates, even with a wedged job, within its deadline plus the
//     cooperative cancellation latency.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "netlist/bench_io.hpp"
#include "pipeline/job.hpp"
#include "service/service.hpp"
#include "store/manifest.hpp"
#include "store/serialize.hpp"
#include "service_util.hpp"
#include "test_util.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"
#include "util/wallclock.hpp"

using namespace bist;
namespace fs = std::filesystem;

namespace {

JobSpec make_spec(const std::string& circuit, const std::string& name = {}) {
  JobSpec s;
  s.name = name.empty() ? circuit : name;
  s.bench_text = write_bench(make_iscas85(circuit));
  s.sweep_lengths = {32, 128};
  s.tpg.lfsr_patterns = 128;
  s.tpg.podem.backtrack_limit = 50;
  s.retry.backoff_s = 0.0005;
  return s;
}

template <class Pred>
bool wait_until(Pred pred, double timeout_s = 10.0) {
  const auto t0 = WallClock::now();
  while (!pred()) {
    if (seconds_since(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// The accounting identities every scenario must maintain.
void check_accounting(const ServiceHealth& h) {
  CHECK_EQ(h.submitted, h.accepted + h.replayed + h.rejected_overload +
                            h.rejected_quarantine + h.rejected_stopping);
  CHECK_EQ(h.accepted, h.completed_ok + h.completed_error +
                           h.completed_stopped + h.drain_dropped +
                           h.in_flight + h.queue_depth);
}

// FileOps shim: injectable append/rename/write failures under the exact
// code paths the service's manifest and health publishing use.
struct FlakyOps : FileOps {
  bool fail_appends = false;
  bool fail_renames = false;
  bool fail_writes = false;

  bool append_file(const std::string& path,
                   std::span<const std::uint8_t> data) override {
    if (fail_appends) return false;
    return FileOps::append_file(path, data);
  }
  bool rename_file(const std::string& from, const std::string& to) override {
    if (fail_renames) return false;
    return FileOps::rename_file(from, to);
  }
  bool write_file(const std::string& path,
                  std::span<const std::uint8_t> data) override {
    if (fail_writes) return false;
    return FileOps::write_file(path, data);
  }
};

// ---------------------------------------------------------------------------
// FairQueue determinism: pure function of the push sequence.
void test_fair_queue() {
  // Round-robin across clients in one tier, FIFO within a client.
  {
    FairQueue q;
    auto push = [&](const char* client, const char* name, int prio = 0) {
      QueuedJob j;
      j.spec.name = name;
      j.client = client;
      j.priority = prio;
      q.push(std::move(j));
    };
    push("A", "a1");
    push("A", "a2");
    push("A", "a3");
    push("B", "b1");
    push("B", "b2");
    push("C", "c1");
    const char* want[] = {"a1", "b1", "c1", "a2", "b2", "a3"};
    for (const char* w : want) {
      QueuedJob j;
      CHECK(q.pop(j));
      CHECK_EQ(j.spec.name, std::string(w));
    }
    QueuedJob j;
    CHECK(!q.pop(j));
    CHECK_EQ(q.size(), 0u);
  }
  // Strict priority tiers: higher priority drains first regardless of push
  // order; fairness applies within each tier independently.
  {
    FairQueue q;
    auto push = [&](const char* client, const char* name, int prio) {
      QueuedJob j;
      j.spec.name = name;
      j.client = client;
      j.priority = prio;
      q.push(std::move(j));
    };
    push("A", "low_a1", 0);
    push("B", "hi_b1", 5);
    push("A", "hi_a1", 5);
    push("A", "low_a2", 0);
    push("B", "hi_b2", 5);
    const char* want[] = {"hi_b1", "hi_a1", "hi_b2", "low_a1", "low_a2"};
    for (const char* w : want) {
      QueuedJob j;
      CHECK(q.pop(j));
      CHECK_EQ(j.spec.name, std::string(w));
    }
    // drain_all yields exactly the pop order.
    push("A", "x1", 0);
    push("B", "y1", 1);
    push("A", "x2", 0);
    const auto rest = q.drain_all();
    CHECK_EQ(rest.size(), 3u);
    CHECK_EQ(rest[0].spec.name, std::string("y1"));
    CHECK_EQ(rest[1].spec.name, std::string("x1"));
    CHECK_EQ(rest[2].spec.name, std::string("x2"));
    CHECK_EQ(q.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Happy path: submit, complete, clean drain; exactly one report each.
void test_submit_and_complete() {
  Collector col;
  ServiceOptions o;
  o.threads = 2;
  JobService svc(o, col.sink());
  CHECK(svc.accepting());

  CHECK(svc.submit(make_spec("c17")).code == SubmitCode::Accepted);
  CHECK(svc.submit(make_spec("c432s")).code == SubmitCode::Accepted);
  CHECK(col.wait_count(2));
  svc.drain(-1);

  CHECK(!svc.accepting());
  CHECK(col.find("c17").status.ok());
  CHECK(col.find("c432s").status.ok());
  CHECK(col.find("c17").wrapper_ok);

  const ServiceHealth h = svc.health();
  CHECK_EQ(h.state, std::string("stopped"));
  CHECK_EQ(h.submitted, 2u);
  CHECK_EQ(h.accepted, 2u);
  CHECK_EQ(h.completed_ok, 2u);
  CHECK_EQ(h.in_flight, 0u);
  CHECK_EQ(h.queue_depth, 0u);
  check_accounting(h);

  // Post-drain submissions shed with NotAccepting and still report.
  CHECK(svc.submit(make_spec("c17", "late")).code == SubmitCode::NotAccepting);
  CHECK_EQ(col.count(), 3u);
  const JobReport late = col.find("late");
  CHECK(late.status.code == StageCode::Rejected);
  check_accounting(svc.health());
}

// ---------------------------------------------------------------------------
// Backpressure: queue at high-water mark -> fast Overloaded reject; drain
// deadline -> in-flight cancelled, queue dropped, nothing silently lost.
void test_overload_and_forced_drain() {
  Collector col;
  ServiceOptions o;
  o.threads = 1;
  o.queue_limit = 2;
  JobService svc(o, col.sink());

  // Occupy the single worker: every sweep attempt throws transient and the
  // retry loop sleeps 50ms between attempts — a deterministic busy window
  // (seconds long) that drain's cancel cuts short via the interruptible
  // backoff.
  set_injected_failure("sweep", "blocker", /*times=*/-1, InjectedFailure::Transient);
  JobSpec blocker = make_spec("c17", "blocker");
  blocker.retry.attempts = 200;
  blocker.retry.backoff_s = 0.05;
  blocker.retry.multiplier = 1.0;
  CHECK(svc.submit(blocker).code == SubmitCode::Accepted);
  CHECK(wait_until([&] { return svc.health().in_flight == 1; }));

  // Fill the queue to the high-water mark, then overflow it.
  CHECK(svc.submit(make_spec("c17", "q1")).code == SubmitCode::Accepted);
  CHECK(svc.submit(make_spec("c17", "q2")).code == SubmitCode::Accepted);
  const auto t0 = WallClock::now();
  const SubmitResult over = svc.submit(make_spec("c17", "shed"));
  CHECK(over.code == SubmitCode::Overloaded);
  CHECK(seconds_since(t0) < 1.0);  // fast reject, no blocking
  const JobReport shed = col.find("shed");
  CHECK(shed.status.code == StageCode::Rejected);
  CHECK(shed.status.message.find("high-water") != std::string::npos);

  // Forced drain: the deadline passes while the blocker spins, so it is
  // cancelled and the queued jobs are dropped — with reports.
  const auto d0 = WallClock::now();
  svc.drain(0.1);
  CHECK(seconds_since(d0) < 10.0);  // terminates: bounded by cancel latency
  clear_injected_failure();

  CHECK_EQ(col.count(), 4u);  // blocker + q1 + q2 + shed: one report each
  const JobReport q1 = col.find("q1");
  CHECK(q1.status.code == StageCode::Cancelled);
  CHECK(q1.status.message.find("drain") != std::string::npos);
  CHECK(col.find("q2").status.code == StageCode::Cancelled);

  const ServiceHealth h = svc.health();
  CHECK_EQ(h.submitted, 4u);
  CHECK_EQ(h.rejected_overload, 1u);
  CHECK_EQ(h.drain_dropped, 2u);
  CHECK_EQ(h.completed_error + h.completed_stopped, 1u);  // the blocker
  check_accounting(h);
}

// ---------------------------------------------------------------------------
// Deterministic fairness end to end: with one worker pinned, queued work
// runs in exactly the FairQueue order (priority, then client round-robin).
void test_fairness_integration() {
  Collector col;
  ServiceOptions o;
  o.threads = 1;
  JobService svc(o, col.sink());

  // Pin the worker for ~0.4s (8 transient attempts x 50ms backoff).
  set_injected_failure("sweep", "blocker", /*times=*/-1, InjectedFailure::Transient);
  JobSpec blocker = make_spec("c17", "blocker");
  blocker.retry.attempts = 8;
  blocker.retry.backoff_s = 0.05;
  blocker.retry.multiplier = 1.0;
  CHECK(svc.submit(blocker).code == SubmitCode::Accepted);
  CHECK(wait_until([&] { return svc.health().in_flight == 1; }));

  CHECK(svc.submit(make_spec("c17", "a1"), "A", 0).code ==
        SubmitCode::Accepted);
  CHECK(svc.submit(make_spec("c17", "a2"), "A", 0).code ==
        SubmitCode::Accepted);
  CHECK(svc.submit(make_spec("c17", "b1"), "B", 0).code ==
        SubmitCode::Accepted);
  CHECK(svc.submit(make_spec("c17", "d1"), "D", 1).code ==
        SubmitCode::Accepted);

  svc.drain(-1);
  clear_injected_failure();

  // Single worker => completion order == scheduling order.
  const std::vector<std::string> got = col.names();
  const std::vector<std::string> want = {"blocker", "d1", "a1", "b1", "a2"};
  CHECK(got == want);
  CHECK(col.find("blocker").status.code == StageCode::Error);
  for (const char* n : {"a1", "a2", "b1", "d1"})
    CHECK(col.find(n).status.ok());
  check_accounting(svc.health());
}

// ---------------------------------------------------------------------------
// The injection matrix: all five stages x {deterministic, transient-healing,
// transient-exhausting}.  The service must contain every case — correct
// per-job status, no crash, no hang, counters consistent throughout.
void test_injection_matrix() {
  Collector col;
  ServiceOptions o;
  o.threads = 2;
  JobService svc(o, col.sink());

  const char* stages[] = {"parse", "sweep", "schedule", "synth", "verify"};
  std::size_t done = 0;
  for (const char* stage : stages) {
    // Deterministic fault: fails fast (one attempt), job reports Error.
    {
      const std::string name = std::string("det_") + stage;
      set_injected_failure(stage, name, /*times=*/-1, InjectedFailure::Error);
      JobSpec s = make_spec("c17", name);
      s.retry.attempts = 3;
      CHECK(svc.submit(s).code == SubmitCode::Accepted);
      CHECK(col.wait_count(++done));
      clear_injected_failure();
      const JobReport r = col.find(name);
      CHECK(r.status.code == StageCode::Error);
      for (const StageReport& sr : r.stages)
        if (sr.name == stage) CHECK_EQ(sr.attempts, 1u);
    }
    // Transient fault that heals: retry wins, job reports Ok.
    {
      const std::string name = std::string("heal_") + stage;
      set_injected_failure(stage, name, /*times=*/2, InjectedFailure::Transient);
      JobSpec s = make_spec("c17", name);
      s.retry.attempts = 3;
      CHECK(svc.submit(s).code == SubmitCode::Accepted);
      CHECK(col.wait_count(++done));
      clear_injected_failure();
      const JobReport r = col.find(name);
      CHECK(r.status.ok());
      for (const StageReport& sr : r.stages)
        if (sr.name == stage) CHECK_EQ(sr.attempts, 3u);
    }
    // Transient fault outlasting the budget: Error after `attempts` tries.
    {
      const std::string name = std::string("exh_") + stage;
      set_injected_failure(stage, name, /*times=*/-1, InjectedFailure::Transient);
      JobSpec s = make_spec("c17", name);
      s.retry.attempts = 2;
      CHECK(svc.submit(s).code == SubmitCode::Accepted);
      CHECK(col.wait_count(++done));
      clear_injected_failure();
      const JobReport r = col.find(name);
      CHECK(r.status.code == StageCode::Error);
      for (const StageReport& sr : r.stages)
        if (sr.name == stage) CHECK_EQ(sr.attempts, 2u);
    }
    // The job's token cancelled at stage entry: the stage's own polls, or
    // the next stage boundary, stop it, and it reads cancelled, not error.
    {
      const std::string name = std::string("cancel_") + stage;
      set_injected_failure(stage, name, /*times=*/-1, InjectedFailure::Cancel);
      CHECK(svc.submit(make_spec("c17", name)).code == SubmitCode::Accepted);
      CHECK(col.wait_count(++done));
      clear_injected_failure();
      const JobReport r = col.find(name);
      CHECK(r.status.code == StageCode::Cancelled);
      CHECK(!r.wrapper_ok);
      CHECK_EQ(r.stages.size(), 5u);
    }
    CHECK(svc.accepting());  // the service shrugged all of it off
    check_accounting(svc.health());
  }
  // Malformed input (unparseable netlist) is a contained parse Error too.
  JobSpec bad;
  bad.name = "malformed";
  bad.bench_text = "this is not a bench file @@@@";
  bad.sweep_lengths = {32};
  CHECK(svc.submit(bad).code == SubmitCode::Accepted);
  CHECK(col.wait_count(++done));
  CHECK(col.find("malformed").status.code == StageCode::Error);

  svc.drain(-1);
  const ServiceHealth h = svc.health();
  CHECK_EQ(h.completed_ok, 5u);                      // the heal_* jobs
  CHECK_EQ(h.completed_error, 11u);                  // det/exh per stage + bad
  CHECK_EQ(h.completed_stopped, 5u);                 // the cancel_* jobs
  CHECK(h.retried_jobs >= 10u);                      // heal_* and exh_* retried
  check_accounting(h);
}

// ---------------------------------------------------------------------------
// File faults: failed manifest appends and failed health publishes degrade
// (journal cold, snapshot stale) but never break job execution.
void test_file_fault_containment() {
  const std::string mp = "service_flaky_manifest.bin";
  const std::string hp = "service_flaky_health.json";
  fs::remove(mp);
  fs::remove(hp);
  FlakyOps ops;
  ops.fail_appends = true;  // every journal append fails
  ops.fail_writes = true;   // every health temp-file write fails
  {
    ServiceOptions o;
    o.threads = 1;
    o.manifest_path = mp;
    o.health_path = hp;
    o.health_period_s = 0.01;
    o.ops = &ops;
    ServiceHealth h;
    // The job itself is untouched.
    CHECK(run_specs({make_spec("c17")}, o, &h)[0].status.ok());
    CHECK_EQ(h.accepted, 1u);
    check_accounting(h);
  }
  // The journal stayed cold, so a resume run re-executes instead of
  // replaying — degraded performance, full correctness.
  {
    ServiceOptions o;
    o.threads = 1;
    o.manifest_path = mp;
    o.resume = true;
    const JobReport r = run_specs({make_spec("c17")}, o)[0];
    CHECK(r.status.ok());
    CHECK(!r.cache.manifest);
  }
  fs::remove(mp);
  fs::remove(hp);
}

// ---------------------------------------------------------------------------
// Watchdog: a job past its timeout that will not stop on its own is
// cancelled; repeated offenses quarantine the job name at admission.
void test_watchdog_and_quarantine() {
  Collector col;
  ServiceOptions o;
  o.threads = 1;
  o.watchdog_timeout_s = 0.15;
  o.quarantine_after = 2;
  JobService svc(o, col.sink());

  // "wedge" spins in the transient-retry loop for ~50s unless killed; it has
  // no job_timeout_s, so only the service watchdog can stop it.
  set_injected_failure("sweep", "wedge", /*times=*/-1, InjectedFailure::Transient);
  JobSpec wedge = make_spec("c17", "wedge");
  wedge.retry.attempts = 1000;
  wedge.retry.backoff_s = 0.05;
  wedge.retry.multiplier = 1.0;

  for (int run = 1; run <= 2; ++run) {
    const auto t0 = WallClock::now();
    CHECK(svc.submit(wedge).code == SubmitCode::Accepted);
    CHECK(col.wait_count(static_cast<std::size_t>(run), 10.0));
    // Killed at timeout + grace: never sooner, and not after 50s.
    CHECK(seconds_since(t0) >= o.watchdog_timeout_s + kWatchdogGraceS);
    CHECK(seconds_since(t0) < 5.0);
    CHECK_EQ(svc.health().watchdog_kills, static_cast<std::uint64_t>(run));
  }
  clear_injected_failure();

  // A kill lands in the retry backoff: the job reads cancelled and counts
  // as stopped, with the last error kept in the stage note.
  const JobReport killed = col.find("wedge");
  CHECK(killed.status.code == StageCode::Cancelled);
  CHECK(killed.stages[1].status.code == StageCode::Cancelled);
  CHECK(killed.stages[1].note.find("retry abandoned") != std::string::npos);
  CHECK(killed.stages[1].note.find("injected failure") != std::string::npos);
  CHECK_EQ(svc.health().completed_stopped, 2u);
  CHECK_EQ(svc.health().completed_error, 0u);

  // Two offenses spent the budget: the name is now refused at admission.
  CHECK(svc.submit(wedge).code == SubmitCode::Quarantined);
  CHECK_EQ(col.count(), 3u);
  const ServiceHealth h = svc.health();
  CHECK_EQ(h.rejected_quarantine, 1u);
  CHECK_EQ(h.quarantined_names, 1u);
  const auto q = svc.quarantined();
  CHECK_EQ(q.size(), 1u);
  CHECK_EQ(q[0], std::string("wedge"));

  // Other names are unaffected.
  CHECK(svc.submit(make_spec("c17")).code == SubmitCode::Accepted);
  CHECK(col.wait_count(4));
  CHECK(col.find("c17").status.ok());
  svc.drain(-1);
  check_accounting(svc.health());
}

// ---------------------------------------------------------------------------
// Own deadline wins: a job with its own job_timeout_s that keeps polling (in
// retry backoff here) stops itself at that deadline, inside the watchdog's
// grace, so the watchdog never kills it and its name is never quarantined.
void test_own_deadline_beats_watchdog() {
  Collector col;
  ServiceOptions o;
  o.threads = 1;
  o.watchdog_timeout_s = 0.05;
  o.quarantine_after = 1;  // a single kill would quarantine the name
  JobService svc(o, col.sink());

  set_injected_failure("sweep", "poller", /*times=*/-1, InjectedFailure::Transient);
  JobSpec poller = make_spec("c17", "poller");
  poller.job_timeout_s = 0.125;  // lands mid-backoff: stops within a slice
  poller.retry.attempts = 1000;
  poller.retry.backoff_s = 0.05;
  poller.retry.multiplier = 1.0;

  for (int run = 1; run <= 4; ++run) {
    CHECK(svc.submit(poller).code == SubmitCode::Accepted);
    CHECK(col.wait_count(static_cast<std::size_t>(run), 10.0));
  }
  clear_injected_failure();

  const JobReport rep = col.find("poller");
  CHECK(rep.status.code == StageCode::DeadlineExceeded);
  CHECK(rep.stages.size() == 5 && rep.stages[1].attempts > 1);
  CHECK(rep.stages[1].status.code == StageCode::DeadlineExceeded);
  CHECK(rep.stages[1].note.find("retry abandoned") != std::string::npos);
  svc.drain(-1);
  const ServiceHealth h = svc.health();
  CHECK_EQ(h.completed_stopped, 4u);
  CHECK_EQ(h.completed_error, 0u);
  CHECK_EQ(h.watchdog_kills, 0u);
  CHECK_EQ(h.quarantined_names, 0u);
  CHECK_EQ(h.rejected_quarantine, 0u);
  CHECK(svc.quarantined().empty());
  check_accounting(h);
}

// ---------------------------------------------------------------------------
// Restart recovery: journaled jobs replay at admission after a restart, and
// the replayed stream is byte-identical (volatile fields stripped) to a cold
// run — including after a hard mid-flight drain ("kill").
void test_restart_replay_differential() {
  const std::string mp = "service_manifest.bin";
  fs::remove(mp);
  const JobSpec j1 = make_spec("c17");
  const JobSpec j2 = make_spec("c432s");
  const JobReport cold1 = run_plan_job(j1);
  const JobReport cold2 = run_plan_job(j2);

  // Run A: j1 completes and is journaled; then a hard drain mid-j2 ("kill"
  // shape: accepted work cancelled before it could finish).
  {
    Collector col;
    ServiceOptions o;
    o.threads = 1;
    o.manifest_path = mp;
    JobService svc(o, col.sink());
    CHECK(svc.submit(j1).code == SubmitCode::Accepted);
    CHECK(col.wait_count(1));
    set_injected_failure("sweep", "c432s", /*times=*/-1, InjectedFailure::Transient);
    JobSpec slow2 = j2;
    slow2.retry.attempts = 200;
    slow2.retry.backoff_s = 0.05;
    slow2.retry.multiplier = 1.0;
    CHECK(svc.submit(slow2).code == SubmitCode::Accepted);
    CHECK(wait_until([&] { return svc.health().in_flight == 1; }));
    svc.drain(0);  // immediate: cancel in flight, like a SIGTERM deadline
    clear_injected_failure();
    CHECK_EQ(col.count(), 2u);
    CHECK(col.find("c17").status.ok());
    CHECK(!col.find("c432s").status.ok());  // cancelled or abandoned, not Ok
    check_accounting(svc.health());
  }

  // Run B (restart, resume): j1 replays instantly from the journal, j2 runs
  // fresh.  The union of streamed reports == the cold batch, stripped.
  {
    Collector col;
    ServiceOptions o;
    o.threads = 2;
    o.manifest_path = mp;
    o.resume = true;
    JobService svc(o, col.sink());
    const SubmitResult r1 = svc.submit(j1);
    CHECK(r1.code == SubmitCode::Replayed);
    CHECK_EQ(col.count(), 1u);  // replay emits before submit returns
    const SubmitResult r2 = svc.submit(j2);
    CHECK(r2.code == SubmitCode::Accepted);
    svc.drain(-1);

    const JobReport rep1 = col.find("c17");
    const JobReport rep2 = col.find("c432s");
    CHECK(rep1.cache.manifest);
    CHECK(rep1.cache.note.find("replayed") != std::string::npos);
    CHECK(!rep2.cache.manifest);
    CHECK(stripped_bytes(rep1) == stripped_bytes(cold1));
    CHECK(stripped_bytes(rep2) == stripped_bytes(cold2));

    const ServiceHealth h = svc.health();
    CHECK_EQ(h.replayed, 1u);
    CHECK_EQ(h.completed_ok, 1u);
    check_accounting(h);
  }

  // Run C: both journaled now — a second restart replays everything.
  {
    Collector col;
    ServiceOptions o;
    o.manifest_path = mp;
    o.resume = true;
    JobService svc(o, col.sink());
    CHECK(svc.submit(j1).code == SubmitCode::Replayed);
    CHECK(svc.submit(j2).code == SubmitCode::Replayed);
    svc.drain(-1);
    CHECK(stripped_bytes(col.find("c17")) == stripped_bytes(cold1));
    CHECK(stripped_bytes(col.find("c432s")) == stripped_bytes(cold2));
  }
  fs::remove(mp);
}

// ---------------------------------------------------------------------------
// Satellite: the manifest journal under concurrent writers — every frame
// lands intact (append serializes under the manifest mutex), none interleave.
void test_concurrent_manifest_writers() {
  const std::string mp = "service_concurrent_manifest.bin";
  fs::remove(mp);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  {
    BatchManifest m(mp);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          JobReport r;
          r.name = "w" + std::to_string(t) + "_" + std::to_string(i);
          const Digest128 key = Hasher().str(r.name).digest();
          if (!m.append(key, r)) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    CHECK_EQ(failures.load(), 0);
  }
  // A single torn or interleaved frame would truncate the replay below the
  // full count (load stops at the first bad frame).
  BatchManifest check(mp);
  CHECK_EQ(check.load(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string name = "w" + std::to_string(t) + "_" +
                               std::to_string(i);
      const JobReport* r = check.find(Hasher().str(name).digest());
      CHECK(r && r->name == name);
    }
  }
  fs::remove(mp);
}

// ---------------------------------------------------------------------------
// Satellite: retry backoff observes the job deadline/cancel — a stop during
// a long backoff returns within one poll slice, not after the full sleep.
void test_interruptible_backoff() {
  set_injected_failure("sweep", "c17", /*times=*/-1, InjectedFailure::Transient);
  JobSpec spec = make_spec("c17");
  spec.retry.attempts = 2;
  spec.retry.backoff_s = 30.0;  // would sleep 30s if the wait were blind
  spec.job_timeout_s = 0.05;
  const auto t0 = WallClock::now();
  const JobReport rep = run_plan_job(spec);
  clear_injected_failure();
  CHECK(seconds_since(t0) < 5.0);  // one poll slice past the 50ms deadline
  CHECK(rep.status.code == StageCode::DeadlineExceeded);
  bool noted = false;
  for (const StageReport& sr : rep.stages)
    if (sr.note.find("retry abandoned") != std::string::npos) noted = true;
  CHECK(noted);

  // Same for an explicit cancel arriving mid-backoff.
  set_injected_failure("sweep", "c17", /*times=*/-1, InjectedFailure::Transient);
  CancelToken token;
  JobSpec spec2 = make_spec("c17");
  spec2.retry.attempts = 2;
  spec2.retry.backoff_s = 30.0;
  spec2.cancel = &token;
  const auto t1 = WallClock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  const JobReport rep2 = run_plan_job(spec2);
  canceller.join();
  clear_injected_failure();
  CHECK(seconds_since(t1) < 5.0);
  CHECK(rep2.status.code == StageCode::Cancelled);
}

// ---------------------------------------------------------------------------
// Satellite: the Rejected terminal status survives the serialization layer
// (format v2) and renders distinctly.
void test_rejected_status_roundtrip() {
  CHECK_EQ(stage_code_name(StageCode::Rejected), std::string_view("rejected"));
  JobReport r;
  r.name = "shed";
  r.status = StageStatus::rejected("admission: queue at high-water mark");
  const JobReport d = serialize_job_report(r).empty()
                          ? JobReport{}
                          : deserialize_job_report(serialize_job_report(r));
  CHECK(d.status.code == StageCode::Rejected);
  CHECK_EQ(d.status.message, r.status.message);
  CHECK_EQ(d.name, r.name);
}

// ---------------------------------------------------------------------------
// Health snapshots: periodic + final file publishes, schema sanity.
void test_health_snapshots() {
  const std::string hp = "service_health.json";
  fs::remove(hp);
  {
    ServiceOptions o;
    o.threads = 1;
    o.health_path = hp;
    o.health_period_s = 0.01;
    ServiceHealth h;
    run_specs({make_spec("c17")}, o, &h);
    CHECK_EQ(h.accepted, 1u);
  }
  std::vector<std::uint8_t> bytes;
  CHECK(FileOps::real().read_file(hp, bytes));
  const std::string body(bytes.begin(), bytes.end());
  CHECK(body.find("\"state\":\"stopped\"") != std::string::npos);
  CHECK(body.find("\"completed_ok\":1") != std::string::npos);
  CHECK(body.find("\"queue_depth\":0") != std::string::npos);
  CHECK(body.front() == '{');

  // The JSON renderer itself, including the store block.
  ServiceHealth h;
  h.state = "running";
  h.has_store = true;
  h.store.hits = 3;
  h.store.misses = 1;
  const std::string js = health_json(h);
  CHECK(js.find("\"hit_rate\":0.75") != std::string::npos);
  CHECK(js.find("\"store\":{") != std::string::npos);
  fs::remove(hp);
}

}  // namespace

int main() {
  test_fair_queue();
  test_submit_and_complete();
  test_overload_and_forced_drain();
  test_fairness_integration();
  test_injection_matrix();
  test_file_fault_containment();
  test_watchdog_and_quarantine();
  test_own_deadline_beats_watchdog();
  test_restart_replay_differential();
  test_concurrent_manifest_writers();
  test_interruptible_backoff();
  test_rejected_status_roundtrip();
  test_health_snapshots();
  return bist_test::summary();
}
