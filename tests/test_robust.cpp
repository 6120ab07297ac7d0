// Robustness suite: exception-safe WorkerPool regions, hardened .bench
// parsing, Deadline/CancelToken semantics, anytime degradation of the sweep
// (deadline-cut runs stay bit-identical for the work they completed and
// always yield a schedulable, verifiable plan), per-stage fault
// containment in the pipeline job layer (jobs run through JobService), stops
// that land inside synth and verify and read as stops, and a plan job over
// a gate wider than 64 inputs.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bist/schedule.hpp"
#include "bist/synth.hpp"
#include "bist/verify.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "netlist/bench_io.hpp"
#include "pipeline/job.hpp"
#include "service_util.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/sweep.hpp"
#include "util/deadline.hpp"
#include "util/parallel.hpp"

using namespace bist;

// ---------------------------------------------------------------------------
// Deadline / CancelToken units
// ---------------------------------------------------------------------------

static void test_deadline_units() {
  Deadline none;
  CHECK(!none.should_stop());
  CHECK(none.stop_code() == StageCode::Ok);

  CHECK(Deadline::immediate().should_stop());
  CHECK(Deadline::immediate().stop_code() == StageCode::DeadlineExceeded);
  CHECK(!Deadline::after(1e9).should_stop());

  // after_checks(n): the first n polls pass, the (n+1)-th and every later
  // one fire — and copies share the budget.
  Deadline d = Deadline::after_checks(3);
  Deadline copy = d;
  CHECK(!d.expired());
  CHECK(!copy.expired());
  CHECK(!d.expired());
  CHECK(copy.expired());  // 4th poll overall
  CHECK(d.expired());     // sticky
  CHECK(d.stop_code() == StageCode::DeadlineExceeded);

  // Cancellation is observed and wins over an expired deadline.
  CancelToken tok;
  Deadline both = Deadline::immediate();
  both.observe(&tok);
  CHECK(both.stop_code() == StageCode::DeadlineExceeded);
  tok.cancel();
  CHECK(both.should_stop());
  CHECK(both.stop_code() == StageCode::Cancelled);
  CHECK(both.stop_status("here").code == StageCode::Cancelled);
  tok.reset();
  CHECK(Deadline().observe(&tok).stop_code() == StageCode::Ok);

  // within(s): the earlier of the two expiries wins; the token carries over.
  CHECK(Deadline::immediate().within(1e9).should_stop());
  CHECK(Deadline::after(1e9).within(0).should_stop());
  CHECK(!Deadline::after(1e9).within(1e9).should_stop());
  CHECK(Deadline().within(0).should_stop());
  CHECK(!Deadline().within(1e9).should_stop());
  tok.cancel();
  CHECK(Deadline().observe(&tok).within(1e9).stop_code() ==
        StageCode::Cancelled);
  tok.reset();
}

// ---------------------------------------------------------------------------
// WorkerPool exception safety
// ---------------------------------------------------------------------------

static void test_worker_pool_exceptions() {
  WorkerPool pool(4);
  CHECK_EQ(pool.workers(), 4u);

  // A throwing worker must not wedge or kill the region: the exception is
  // rethrown on the caller and the other workers complete.
  std::atomic<int> completed{0};
  bool threw = false;
  try {
    pool.run([&](unsigned wid) {
      if (wid == 2) throw std::runtime_error("boom from worker 2");
      completed.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    CHECK(std::strcmp(e.what(), "boom from worker 2") == 0);
  }
  CHECK(threw);
  CHECK_EQ(completed.load(), 3);

  // The pool is reusable after a throwing region — this is the regression
  // test for the old "fn must not throw" contract.
  std::atomic<int> sum{0};
  pool.run([&](unsigned wid) { sum.fetch_add(int(wid) + 1); });
  CHECK_EQ(sum.load(), 1 + 2 + 3 + 4);

  // parallel_for: a throwing chunk surfaces on the caller, the remaining
  // range is drained by the other workers, and the pool stays usable.
  std::vector<char> seen(64, 0);
  threw = false;
  try {
    parallel_for(pool, seen.size(), 1,
                 [&](unsigned, std::size_t b, std::size_t e) {
                   for (std::size_t i = b; i < e; ++i) {
                     if (i == 17) throw std::runtime_error("chunk 17");
                     seen[i] = 1;
                   }
                 });
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
  std::size_t done = 0;
  for (const char c : seen) done += c;
  CHECK(done >= seen.size() - 2);  // only the throwing index (17) may be lost

  std::atomic<std::size_t> count{0};
  parallel_for(pool, 1000, 7,
               [&](unsigned, std::size_t b, std::size_t e) {
                 count.fetch_add(e - b);
               });
  CHECK_EQ(count.load(), 1000u);

  // Single-worker pool: run() is a plain call; exceptions propagate too.
  WorkerPool solo(1);
  bool solo_threw = false;
  try {
    solo.run([](unsigned) { throw std::logic_error("solo"); });
  } catch (const std::logic_error&) {
    solo_threw = true;
  }
  CHECK(solo_threw);
  int calls = 0;
  solo.run([&](unsigned) { ++calls; });
  CHECK_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// read_bench hardening
// ---------------------------------------------------------------------------

static bool throws_with_line(const std::string& text, const BenchLimits& lim,
                             const char* needle) {
  try {
    (void)read_bench(text, "t", lim);
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    return msg.rfind(".bench line", 0) == 0 &&
           msg.find(needle) != std::string::npos;
  }
  return false;
}

static void test_bench_hardening() {
  // Well-formed input round-trips untouched under the default limits.
  const Netlist c17 = make_iscas85("c17");
  const std::string good = write_bench(c17);
  const Netlist again = read_bench(good, "c17");
  CHECK_EQ(again.input_count(), c17.input_count());
  CHECK_EQ(again.gate_count(), c17.gate_count());

  BenchLimits small;
  small.max_name_len = 8;
  small.max_fanins = 4;
  small.max_gates = 6;

  const std::string pre = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n";

  // Malformed structure (line-tagged).
  CHECK(throws_with_line(pre + "y = AND(a, b", {}, "expected GATE"));
  CHECK(throws_with_line(pre + "y = AND(a, )\n", {}, "empty fanin"));
  CHECK(throws_with_line("INPUT()\n", {}, "empty signal name"));
  CHECK(throws_with_line("FOO(a)\n", {}, "unknown directive"));
  CHECK(throws_with_line(pre + "y = FROB(a, b)\n", {}, "gate type"));
  // Redefinition and cycles surface with the line tag too.
  CHECK(throws_with_line(pre + "y = AND(a, b)\ny = OR(a, b)\n", {}, "y"));
  CHECK_THROWS(read_bench(pre + "x = AND(a, z)\nz = OR(b, x)\ny = OR(x, z)\n"));

  // Oversized identifiers, fanin lists, gate counts.
  CHECK(throws_with_line(pre + "gate_name_far_too_long = AND(a, b)\n", small,
                         "-byte limit"));
  CHECK(throws_with_line(pre + "y = AND(a, b, a, b, a)\n", small,
                         "fanin list exceeds"));
  {
    std::string big = "INPUT(a)\nOUTPUT(y)\n";
    for (int i = 0; i < 8; ++i)
      big += "g" + std::to_string(i) + " = NOT(a)\n";
    big += "y = OR(g0, g1)\n";
    CHECK(throws_with_line(big, small, "gate count exceeds"));
  }
  {
    // A pathological 10k-fanin gate is rejected by the default limits.
    std::string wide = "OUTPUT(y)\ny = AND(";
    for (int i = 0; i < 10000; ++i) {
      wide += (i ? ", x" : "x") + std::to_string(i);
    }
    wide += ")\n";
    std::string decls;
    for (int i = 0; i < 10000; ++i)
      decls += "INPUT(x" + std::to_string(i) + ")\n";
    CHECK(throws_with_line(decls + wide, {}, "fanin list exceeds"));
  }

  // Non-printable bytes are rejected before they can mangle a name.
  CHECK(throws_with_line(pre + std::string("y = AND(a, b\x01)\n"), {},
                         "non-printable"));
  CHECK(throws_with_line(std::string("INPUT(a\x80)\n"), {}, "non-printable"));
  CHECK(throws_with_line(std::string("INPUT(a)\nOUTPUT(\x00y)\n", 20), {},
                         "non-printable"));
  // Tab and CRLF remain legal (historical distributions use both).
  (void)read_bench("INPUT(a)\r\nOUTPUT(y)\r\ny\t=\tNOT(a)\r\n");
}

// ---------------------------------------------------------------------------
// Cooperative cancellation in the engines: completed work is bit-identical
// ---------------------------------------------------------------------------

static void test_fault_sim_deadline_prefix() {
  const Netlist n = make_iscas85("c432s");
  const SimKernel k(n);
  const std::size_t width = k.inputs().size();
  const std::size_t total = 2048;
  // One materialized stream reused by every run (Lfsr::blocks advances the
  // generator, so each run gets its own identical copy this way).
  const std::vector<PatternBlock> stream =
      Lfsr::maximal(16, 99).blocks(width, total);

  FaultSimulator fsim(k);
  const FaultSimResult full = fsim.run(stream, {});
  CHECK(full.status.ok());
  CHECK_EQ(full.patterns, total);

  // An immediate deadline stops before any block: zero patterns, status set.
  {
    Deadline d = Deadline::immediate();
    FaultSimulator f2(k);
    const FaultSimResult r = f2.run(stream, {}, &d);
    CHECK(r.status.code == StageCode::DeadlineExceeded);
    CHECK_EQ(r.patterns, 0u);
    CHECK_EQ(r.detected, 0u);
  }

  // A mid-flight stop (poll-count trigger) returns an exact prefix of the
  // uninterrupted run: same detection indices and counts, for the patterns
  // that actually ran.
  {
    Deadline d = Deadline::after_checks(2);
    FaultSimulator f2(k);
    const FaultSimResult r = f2.run(stream, {}, &d);
    CHECK(r.status.code == StageCode::DeadlineExceeded);
    CHECK(r.patterns > 0);
    CHECK(r.patterns < total);
    const FaultSimResult want = fsim.prefix_result(full, r.patterns);
    CHECK_EQ(r.detected, want.detected);
    CHECK_EQ(r.detected_weight, want.detected_weight);
    CHECK(r.first_detected == want.first_detected);
    CHECK_EQ(r.final_coverage(), want.final_coverage());
    CHECK_EQ(r.final_coverage_weighted(), want.final_coverage_weighted());
  }

  // Cancellation reports Cancelled, not DeadlineExceeded.
  {
    CancelToken tok;
    tok.cancel();
    Deadline d;
    d.observe(&tok);
    FaultSimulator f2(k);
    const FaultSimResult r = f2.run(stream, {}, &d);
    CHECK(r.status.code == StageCode::Cancelled);
    CHECK_EQ(r.patterns, 0u);
  }
}

static void test_podem_cancellation() {
  const Netlist n = make_iscas85("c432s");
  const SimKernel k(n);
  FaultSimulator fsim(k);
  std::vector<Fault> faults(fsim.faults().begin(),
                            fsim.faults().begin() +
                                std::min<std::size_t>(24, fsim.faults().size()));

  PodemBatch batch(k, 2);
  const std::vector<PodemResult> base = batch.generate(faults, {});

  // Expired deadline: every slot is Cancelled — no fabricated verdicts.
  {
    Deadline d = Deadline::immediate();
    const std::vector<PodemResult> r = batch.generate(faults, {}, &d);
    CHECK_EQ(r.size(), faults.size());
    for (const PodemResult& v : r) CHECK(v.status == PodemStatus::Cancelled);
  }

  // Mid-flight stop: verdicts that finished before the trigger are
  // bit-identical to the undeadlined run; the rest are Cancelled.  Budgets
  // span "fires almost immediately" to "never fires" (the last one exceeds
  // every search's poll count by construction), so across the rounds both
  // outcomes are guaranteed to occur wherever the cut actually lands.
  std::uint64_t ample = 10 * faults.size();
  for (const PodemResult& v : base) ample += 4 * v.decisions;
  std::size_t done = 0, cancelled = 0;
  for (const std::uint64_t polls : {std::uint64_t(1), std::uint64_t(64), ample}) {
    Deadline d = Deadline::after_checks(polls);
    Podem solo(k);  // single engine: deterministic completion order
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const PodemResult v = solo.generate(faults[i], {}, &d);
      if (v.status == PodemStatus::Cancelled) {
        ++cancelled;
        continue;
      }
      ++done;
      CHECK(v.status == base[i].status);
      CHECK(v.cube == base[i].cube);
      CHECK_EQ(v.backtracks, base[i].backtracks);
      CHECK_EQ(v.decisions, base[i].decisions);
    }
  }
  CHECK(done > 0);
  CHECK(cancelled > 0);

  // Stops while several lanes are in flight: the LFSR tail of c432s (hard
  // faults, some abort at the limit) in one batch larger than the lane
  // count.  Verdicts finished before the stop are bit-identical; every other
  // slot is Cancelled, never Aborted.  A Cancelled slot with decisions was a
  // search cut mid-flight.  One worker polls once per step, so where each
  // budget lands is deterministic; two workers share the budget and land
  // anywhere, under the same contract.
  Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
  const FaultSimResult lr = fsim.run(lfsr.blocks(n.input_count(), 512));
  std::vector<Fault> tail;
  for (const std::uint32_t i : lr.tail_at(lr.patterns))
    tail.push_back(fsim.faults()[i]);
  CHECK(tail.size() > 2 * PairSim::kLanes);
  PodemOptions lim;
  lim.backtrack_limit = 50;
  PodemBatch solo_batch(k, 1);
  const std::vector<PodemResult> tail_base = solo_batch.generate(tail, lim);
  bool cut_in_flight = false;
  for (const std::uint64_t polls : {2, 8, 32, 128, 512}) {
    for (PodemBatch* b : {&solo_batch, &batch}) {
      Deadline d = Deadline::after_checks(polls);
      const std::vector<PodemResult> r = b->generate(tail, lim, &d);
      std::size_t finished = 0, in_flight = 0;
      for (std::size_t i = 0; i < tail.size(); ++i) {
        if (r[i].status == PodemStatus::Cancelled) {
          in_flight += r[i].decisions > 0;
          CHECK(r[i].cube.empty());
          continue;
        }
        ++finished;
        CHECK(r[i].status == tail_base[i].status);
        CHECK(r[i].cube == tail_base[i].cube);
        CHECK_EQ(r[i].backtracks, tail_base[i].backtracks);
        CHECK_EQ(r[i].decisions, tail_base[i].decisions);
      }
      if (b == &solo_batch) {
        std::printf("podem lanes: %zu faults, stop after %llu polls: %zu "
                    "finished, %zu cut in flight\n",
                    tail.size(), static_cast<unsigned long long>(polls),
                    finished, in_flight);
        cut_in_flight |= finished > 0 && in_flight >= 2;
      }
    }
  }
  CHECK(cut_in_flight);

  // Reuse after the cuts: both batches, undeadlined, return every slot
  // exactly as before — a lane cancelled mid-search leaves no fault, cone or
  // assignment behind in its engine.
  for (PodemBatch* b : {&solo_batch, &batch}) {
    const std::vector<PodemResult> r = b->generate(tail, lim);
    CHECK_EQ(r.size(), tail_base.size());
    std::size_t differ = 0;
    for (std::size_t i = 0; i < r.size() && i < tail_base.size(); ++i)
      differ += r[i].status != tail_base[i].status ||
                r[i].cube != tail_base[i].cube ||
                r[i].backtracks != tail_base[i].backtracks ||
                r[i].decisions != tail_base[i].decisions;
    CHECK_EQ(differ, 0u);
  }
}

// ---------------------------------------------------------------------------
// Anytime sweep: degraded plans schedule, synthesize, and verify
// ---------------------------------------------------------------------------

static void test_sweep_generous_deadline_identity() {
  const Netlist n = make_iscas85("c432s");
  const SimKernel k(n);
  const std::vector<std::size_t> lengths{512, 2048};

  MixedTpgOptions opt;
  opt.podem_threads = 2;
  const MixedSweepResult base = run_mixed_sweep(k, lengths, opt);
  CHECK(base.status.ok());

  Deadline d = Deadline::after(1e9);
  const MixedSweepResult dl = run_mixed_sweep(k, lengths, opt, &d);
  CHECK(dl.status.ok());
  CHECK_EQ(dl.points.size(), base.points.size());
  for (std::size_t i = 0; i < base.points.size(); ++i) {
    CHECK(dl.points[i].state == PointState::Complete);
    CHECK(dl.points[i] == base.points[i]);
  }
}

static void test_sweep_midflight_degradation() {
  const Netlist n = make_iscas85("c432s");
  const SimKernel k(n);
  const std::vector<std::size_t> lengths{512, 1024, 2048};

  MixedTpgOptions opt;
  const MixedSweepResult base = run_mixed_sweep(k, lengths, opt);

  // Fire the deadline at a spread of cooperative checks.  Wherever it lands,
  // the invariants hold: Complete points are bit-identical to the baseline,
  // LfsrOnly points carry the exact LFSR prefix data, something schedulable
  // always survives, and the sweep-level status reflects the cut.
  for (const std::uint64_t polls : {0ull, 1ull, 8ull, 512ull, 100000ull}) {
    Deadline d = Deadline::after_checks(polls);
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt, &d);
    CHECK_EQ(sw.points.size(), lengths.size());
    bool usable = false;
    bool cut = false;
    for (std::size_t i = 0; i < sw.points.size(); ++i) {
      const MixedSchemeResult& p = sw.points[i];
      if (p.state == PointState::Complete) {
        CHECK(p.status.ok());
        CHECK(p == base.points[i]);
        usable = true;
      } else if (p.state == PointState::LfsrOnly) {
        cut = true;
        usable = true;
        CHECK(!p.status.ok());
        CHECK(p.topoff.empty());
        CHECK(p.final_coverage == p.lfsr_coverage);
        // The LFSR data is an exact prefix of the baseline's shared pass.
        if (p.lfsr_patterns == base.points[i].lfsr_patterns)
          CHECK(p.lfsr_coverage == base.points[i].lfsr_coverage);
      } else {
        cut = true;
        CHECK(!p.status.ok());
      }
    }
    CHECK(usable);
    CHECK_EQ(cut, !sw.status.ok());

    // Whatever survived must schedule; a plan from a gutted sweep is marked
    // degraded and still synthesizes + verifies.
    ScheduleOptions so;
    const BistPlan plan = schedule_bist(sw, n.input_count(), so);
    if (polls == 0) {
      CHECK(plan.degraded);
      CHECK_EQ(plan.topoff_patterns, 0u);
      const BistSynthResult syn = synthesize_bist_wrapper(n, plan);
      const WrapperVerification wv = verify_wrapper(
          syn.wrapper, n, plan, sw.points[plan.point_index], {});
      CHECK(wv.ok());
    }
  }
}

static void test_zero_deadline_full_family_degraded() {
  // Satellite (c): a near-zero deadline across the WHOLE surrogate family
  // still produces, for every circuit, a degraded LFSR-only plan whose
  // synthesized wrapper passes closed-loop verification.
  std::vector<JobSpec> specs;
  for (const std::string& name : iscas85_names()) {
    JobSpec s;
    s.name = name;
    s.bench_text = write_bench(make_iscas85(name));
    s.sweep_lengths = {64, 256};
    s.sweep_deadline_s = 1e-9;
    specs.push_back(std::move(s));
  }
  ServiceOptions opt;
  opt.threads = 4;
  const std::vector<JobReport> reps = run_specs(specs, opt);
  CHECK_EQ(reps.size(), specs.size());
  for (const JobReport& r : reps) {
    CHECK(r.status.code == StageCode::DeadlineExceeded);
    CHECK(r.degraded);
    CHECK(r.wrapper_ok);
    CHECK_EQ(r.plan.topoff_patterns, 0u);
    CHECK(r.plan.final_coverage == r.plan.lfsr_coverage);
    CHECK(!r.wrapper_bench.empty());
    CHECK_EQ(r.stages.size(), 5u);
    for (const StageReport& sr : r.stages)
      CHECK(sr.status.code != StageCode::Error);
  }
}

// ---------------------------------------------------------------------------
// Pipeline job layer: per-stage containment
// ---------------------------------------------------------------------------

static std::vector<JobSpec> containment_specs() {
  std::vector<JobSpec> specs;
  for (const char* name : {"c17", "c432s", "c880s"}) {
    JobSpec s;
    s.name = name;
    s.bench_text = write_bench(make_iscas85(name));
    s.sweep_lengths = {2048, 4096};
    specs.push_back(std::move(s));
  }
  return specs;
}

static void test_job_stage_containment() {
  const std::vector<JobSpec> specs = containment_specs();
  ServiceOptions opt;
  opt.threads = 4;
  const std::vector<JobReport> base = run_specs(specs, opt);
  CHECK_EQ(base.size(), specs.size());
  for (const JobReport& r : base) {
    CHECK(r.status.ok());
    CHECK(r.wrapper_ok);
    CHECK(!r.degraded);
    CHECK_EQ(r.stages.size(), 5u);
    for (const StageReport& sr : r.stages) CHECK(sr.status.ok());
  }

  // Differential fault injection: fail exactly one stage of exactly one job
  // per round; the injected job reports Error at that stage (later stages
  // not run), and the sibling jobs are identical to the failure-free run.
  const char* stages[] = {"parse", "sweep", "schedule", "synth", "verify"};
  for (std::size_t si = 0; si < 5; ++si) {
    set_injected_failure(stages[si], "c432s");
    const std::vector<JobReport> reps = run_specs(specs, opt);
    clear_injected_failure();
    CHECK_EQ(reps.size(), specs.size());
    for (std::size_t j = 0; j < reps.size(); ++j) {
      if (specs[j].name != "c432s") {
        CHECK(stripped_bytes(reps[j]) == stripped_bytes(base[j]));
        continue;
      }
      const JobReport& r = reps[j];
      CHECK(r.status.code == StageCode::Error);
      CHECK(!r.wrapper_ok);
      CHECK_EQ(r.stages.size(), 5u);
      for (std::size_t t = 0; t < 5; ++t) {
        if (t < si) {
          CHECK(r.stages[t].status.ok());
        } else if (t == si) {
          CHECK(r.stages[t].status.code == StageCode::Error);
          CHECK(r.stages[t].status.message.find("injected") !=
                std::string::npos);
        } else {
          CHECK(r.stages[t].status.code == StageCode::Error);
          CHECK(r.stages[t].status.message.find("not run") !=
                std::string::npos);
        }
      }
    }
  }

  // Once the injection is cleared the service yields the failure-free
  // result again.
  const std::vector<JobReport> again = run_specs(specs, opt);
  for (std::size_t j = 0; j < again.size(); ++j)
    CHECK(stripped_bytes(again[j]) == stripped_bytes(base[j]));
}

static void test_job_timeout_and_cancel() {
  JobSpec s;
  s.name = "c17";
  s.bench_text = write_bench(make_iscas85("c17"));
  s.sweep_lengths = {64, 128};

  // Whole-job timeout already expired: no stage runs, the report says so.
  {
    JobSpec t = s;
    t.job_timeout_s = 1e-9;
    const JobReport r = run_plan_job(t);
    CHECK(r.status.code == StageCode::DeadlineExceeded);
    CHECK(!r.wrapper_ok);
    CHECK_EQ(r.stages.size(), 5u);
    CHECK(r.stages[0].status.code == StageCode::DeadlineExceeded);
  }

  // Pre-cancelled token: reported as Cancelled, not DeadlineExceeded.
  {
    JobSpec t = s;
    CancelToken tok;
    tok.cancel();
    t.cancel = &tok;
    const JobReport r = run_plan_job(t);
    CHECK(r.status.code == StageCode::Cancelled);
  }

  // The whole-job timeout bounds the sweep under a looser sweep deadline:
  // the sweep stops itself (it would run for seconds) rather than finish.
  {
    JobSpec t = s;
    t.name = "c7552s";
    t.bench_text = write_bench(make_iscas85("c7552s"));
    t.sweep_lengths = {256, 1024};
    t.sweep_deadline_s = 1e9;
    t.job_timeout_s = 0.02;
    const JobReport r = run_plan_job(t);
    CHECK(r.status.code == StageCode::DeadlineExceeded);
    CHECK_EQ(r.stages.size(), 5u);
    CHECK(r.stages[1].status.code == StageCode::DeadlineExceeded);
  }

  // A malformed netlist is an Error in the parse stage, never a throw.
  {
    JobSpec t = s;
    t.bench_text = "INPUT(a)\nOUTPUT(y)\ny = AND(a\n";
    const JobReport r = run_plan_job(t);
    CHECK(r.status.code == StageCode::Error);
    CHECK(!r.stages.empty());
    CHECK(r.stages[0].status.code == StageCode::Error);
    CHECK(r.stages[0].status.message.find(".bench line") != std::string::npos);
  }
}

// A stop must land inside the stage it hits.  The `cancel` injection fires
// the job's own token at stage entry, after the between-stage check, so only
// the stage's own polls can catch it: synth and verify must report the stop
// themselves (verify with the cycles it proved, short of the test time),
// and the job reads cancelled.  A job that loses its retries to a stop reads
// the stop status; one that runs out of retries still reads error.
static void test_stop_lands_in_stage() {
  JobSpec s;
  s.name = "c432s";
  s.bench_text = write_bench(make_iscas85("c432s"));
  s.sweep_lengths = {256, 512};
  s.tpg.lfsr_patterns = 512;
  s.tpg.podem.backtrack_limit = 50;

  {
    CancelToken tok;
    JobSpec t = s;
    t.cancel = &tok;
    set_injected_failure("synth", "c432s", /*times=*/-1,
                         InjectedFailure::Cancel);
    const JobReport r = run_plan_job(t);
    clear_injected_failure();
    CHECK(tok.cancelled());
    CHECK(r.status.code == StageCode::Cancelled);
    CHECK_EQ(r.stages.size(), 5u);
    CHECK(r.stages[3].name == "synth");
    CHECK(r.stages[3].status.code == StageCode::Cancelled);
    CHECK(r.wrapper_bench.empty());
  }
  {
    CancelToken tok;
    JobSpec t = s;
    t.cancel = &tok;
    set_injected_failure("verify", "c432s", /*times=*/-1,
                         InjectedFailure::Cancel);
    const JobReport r = run_plan_job(t);
    clear_injected_failure();
    CHECK(r.status.code == StageCode::Cancelled);
    CHECK_EQ(r.stages.size(), 5u);
    CHECK(r.stages[4].status.code == StageCode::Cancelled);
    CHECK(r.verification.status.code == StageCode::Cancelled);
    CHECK(r.plan.test_time > 0);
    CHECK(r.verification.cycles < r.plan.test_time);
    CHECK(!r.wrapper_ok);
  }

  // Sticky transient sweep failure, endless retries: the job's own deadline
  // ends it in the backoff, and it reads deadline_exceeded.
  set_injected_failure("sweep", "c432s", /*times=*/-1,
                       InjectedFailure::Transient);
  {
    JobSpec t = s;
    t.retry.attempts = 1000;
    t.retry.backoff_s = 0.01;
    t.retry.multiplier = 1.0;
    t.job_timeout_s = 0.05;
    const JobReport r = run_plan_job(t);
    CHECK(r.status.code == StageCode::DeadlineExceeded);
    CHECK_EQ(r.stages.size(), 5u);
    CHECK(r.stages[1].status.code == StageCode::DeadlineExceeded);
    CHECK(r.stages[1].note.find("injected failure") != std::string::npos);
  }
  // The same failure with a spent retry budget and no stop is an error.
  {
    JobSpec t = s;
    t.retry.attempts = 2;
    t.retry.backoff_s = 0.001;
    const JobReport r = run_plan_job(t);
    CHECK(r.status.code == StageCode::Error);
    CHECK(r.stages[1].status.code == StageCode::Error);
  }
  clear_injected_failure();
}

// A gate with more than 64 fanins is legal everywhere: the job runs every
// stage Ok, and PODEM (not the LFSR, which never sets 80 inputs to 1 at
// once) covers the wide AND's input-pin faults.
static void test_wide_gate_job() {
  Netlist n("wide80");
  std::vector<GateId> in;
  for (int i = 0; i < 80; ++i)
    in.push_back(n.add_input("i" + std::to_string(i)));
  const GateId wide = n.add_gate(GateType::And, in, "wide");
  const GateId x = n.add_gate(GateType::Xor, {in[0], in[1], in[2]}, "x");
  const GateId o = n.add_gate(GateType::Or, {wide, x}, "o");
  n.add_output(o);
  n.add_output(n.add_gate(GateType::Nand, {in[3], x}, "y"));
  n.freeze();

  JobSpec s;
  s.name = "wide80";
  s.bench_text = write_bench(n);
  s.sweep_lengths = {128, 256};
  for (const bool compress : {true, false}) {
    s.tpg.compress = compress;
    const JobReport r = run_plan_job(s);
    CHECK(r.status.ok());
    CHECK(r.wrapper_ok);
    CHECK_EQ(r.stages.size(), 5u);
    for (const StageReport& st : r.stages) {
      CHECK(st.status.ok());
      if (!st.status.ok())
        std::printf("wide80 %s: %s\n", st.name.c_str(),
                    st.status.message.c_str());
    }
    CHECK_EQ(r.sweep.points.size(), 2u);
    for (const MixedSchemeResult& p : r.sweep.points) {
      CHECK(p.podem_detected > 0);
      CHECK(p.all_verified);
    }
  }
}

int main() {
  test_deadline_units();
  test_worker_pool_exceptions();
  test_bench_hardening();
  test_fault_sim_deadline_prefix();
  test_podem_cancellation();
  test_sweep_generous_deadline_identity();
  test_sweep_midflight_degradation();
  test_zero_deadline_full_family_degraded();
  test_job_stage_containment();
  test_job_timeout_and_cancel();
  test_stop_lands_in_stage();
  test_wide_gate_job();
  return bist_test::summary();
}
