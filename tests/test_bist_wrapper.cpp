// End-to-end differential check of the BIST hardware generator, for every
// circuit in the ISCAS85 surrogate family:
//
//   run_mixed_sweep -> schedule_bist -> synthesize_bist_wrapper ->
//   write_bench -> read_bench -> verify_wrapper
//
// must reproduce the scheduled point exactly: the applied pseudo-random
// phase is bit-identical to the Lfsr stream, the applied ROM phase equals
// the stored top-off set (checked both in sequence and as a multiset), and
// fault-simulating the CUT over the applied patterns lands on the scheduled
// point's final coverage down to the double, under both accounting
// conventions.  verify_wrapper's inductive proof is compared field by field
// with the same checks composed from the cycle-by-cycle simulate_wrapper
// oracle, on both architectures, degraded and T=0 plans and test times off
// the 64-cycle frame grid; wrappers wrong in one place must fail it.  Also
// checks the synthesizer's exact area accounting against netlist_area and
// the T=0 (no ROM) degenerate wrapper.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bist/area.hpp"
#include "bist/schedule.hpp"
#include "bist/synth.hpp"
#include "bist/verify.hpp"
#include "circuits/iscas85_family.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/sweep.hpp"
#include "util/deadline.hpp"

using namespace bist;

namespace {

// Multiset equality of two pattern lists (the set-identity form of the
// acceptance criterion; verify_wrapper already checks the stronger
// sequence identity).
bool set_identical(std::vector<BitVec> a, std::vector<BitVec> b) {
  auto key = [](const BitVec& v) { return v.to_string(); };
  std::vector<std::string> ka, kb;
  for (const BitVec& v : a) ka.push_back(key(v));
  for (const BitVec& v : b) kb.push_back(key(v));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

// Every WrapperVerification field composed the plain way from the
// cycle-by-cycle oracle's run `ws`: the applied stream split into its
// phases and compared with the Lfsr stream and the stored set,
// fault-simulated for coverage and aliasing, seeded rows re-expanded, and
// the MISR read off the last cycle.
WrapperVerification verify_by_oracle(const WrapperSimResult& ws,
                                     const Netlist& cut, const BistPlan& plan,
                                     const MixedSchemeResult& point) {
  const std::size_t w = cut.input_count();
  const std::size_t L = plan.lfsr_patterns;
  WrapperVerification v;
  v.cycles = ws.applied.size();
  Lfsr lfsr(plan.lfsr_degree, plan.lfsr_taps, plan.lfsr_seed);
  v.lfsr_phase_identical = L <= ws.applied.size();
  for (std::size_t t = 0; t < L && v.lfsr_phase_identical; ++t)
    v.lfsr_phase_identical = ws.applied[t] == lfsr.next_pattern(w);
  v.topoff_identical = ws.applied.size() == L + plan.topoff.size();
  for (std::size_t j = 0; j < plan.topoff.size() && v.topoff_identical; ++j)
    v.topoff_identical = ws.applied[L + j] == plan.topoff[j];

  const SimKernel ck(cut);
  FaultSimulator fsim(ck);
  const std::vector<PatternBlock> blocks = pack_all(ws.applied, w);
  const FaultSimResult fr = fsim.run(blocks);
  v.achieved_coverage = fr.final_coverage();
  v.achieved_coverage_weighted = fr.final_coverage_weighted();
  v.coverage_identical =
      v.achieved_coverage == point.final_coverage &&
      v.achieved_coverage_weighted == point.final_coverage_weighted;

  const CompressedTopoff& comp = plan.comp;
  if (comp.enabled) {
    v.seeds_identical = comp.fallback.size() == plan.topoff.size();
    for (std::size_t j = 0; j < plan.topoff.size() && v.seeds_identical; ++j) {
      if (comp.fallback[j]) continue;
      std::vector<SeedEvent> row;
      for (const SeedEvent& e : comp.seeds)
        if (e.row == j) row.push_back(e);
      v.seeds_identical =
          expand_row(row, plan.lfsr_degree, plan.lfsr_taps, w) ==
          plan.topoff[j];
    }
    v.misr_signature = ws.final_misr;
    v.signature_identical = comp.misr.enabled()
                                ? ws.final_misr == comp.golden && ws.sign_ok
                                : ws.final_misr == 0 && !ws.sign_ok;
    if (comp.misr.enabled())
      v.aliasing = misr_aliasing_check(fsim, ck, blocks, ws.applied.size(),
                                       comp.misr, fr.first_detected);
  }
  return v;
}

bool same_verification(const WrapperVerification& a,
                       const WrapperVerification& b) {
  return a.lfsr_phase_identical == b.lfsr_phase_identical &&
         a.topoff_identical == b.topoff_identical &&
         a.coverage_identical == b.coverage_identical &&
         a.seeds_identical == b.seeds_identical &&
         a.signature_identical == b.signature_identical &&
         a.cycles == b.cycles && a.achieved_coverage == b.achieved_coverage &&
         a.achieved_coverage_weighted == b.achieved_coverage_weighted &&
         a.misr_signature == b.misr_signature &&
         a.aliasing.detected_checked == b.aliasing.detected_checked &&
         a.aliasing.escapes == b.aliasing.escapes &&
         a.aliasing.bound == b.aliasing.bound &&
         a.status.code == b.status.code && a.status.message == b.status.message;
}

// Plans whose test time is off the 64-cycle frame grid, among those checked.
std::size_t unaligned_plans = 0;

void check_wrapper(const Netlist& cut, const BistPlan& plan,
                   const MixedSchemeResult& point) {
  const BistSynthResult syn = synthesize_bist_wrapper(cut, plan);
  const unsigned K = plan.comp.enabled && plan.comp.misr.enabled()
                         ? plan.comp.misr.degree
                         : 0;
  CHECK(syn.wrapper.frozen());
  CHECK(syn.bist_gates > 0);
  CHECK_EQ(syn.actual.rom_bits, plan.rom_bits);
  CHECK_EQ(syn.counter_bits, counter_width(plan.test_time));
  CHECK_EQ(syn.wrapper.input_count(),
           plan.lfsr_degree + syn.counter_bits + K);
  CHECK_EQ(syn.wrapper.output_count(), cut.output_count() + plan.lfsr_degree +
                                           syn.counter_bits + K +
                                           (K > 0 ? 1 : 0));

  // The synthesizer's per-block accounting is exact: wrapper area minus the
  // CUT copy equals the emitted BIST logic (state bits are priced as
  // flip-flops on top of the combinational gates).
  const AreaModel& m = plan.area_model;
  const double bist_logic = syn.actual.total() -
                            double(syn.actual.state_bits) * m.flipflop;
  const double by_netlist =
      netlist_area(m, syn.wrapper) - netlist_area(m, cut);
  CHECK(std::abs(bist_logic - by_netlist) < 1e-6);

  // And the scheduler's closed-form estimate prices exactly that structure,
  // block by block.
  CHECK(std::abs(plan.area.lfsr - syn.actual.lfsr) < 1e-6);
  CHECK(std::abs(plan.area.rom - syn.actual.rom) < 1e-6);
  CHECK(std::abs(plan.area.seed_rom - syn.actual.seed_rom) < 1e-6);
  CHECK(std::abs(plan.area.controller - syn.actual.controller) < 1e-6);
  CHECK(std::abs(plan.area.mux - syn.actual.mux) < 1e-6);
  CHECK(std::abs(plan.area.misr - syn.actual.misr) < 1e-6);
  CHECK_EQ(plan.area.state_bits, syn.actual.state_bits);
  CHECK_EQ(plan.area.rom_bits, syn.actual.rom_bits);
  CHECK_EQ(plan.area.seed_rom_bits, syn.actual.seed_rom_bits);
  CHECK_EQ(plan.area.misr_bits, syn.actual.misr_bits);

  // The generated hardware survives its own serialization: write, re-parse,
  // and run the verification loop on the re-parsed netlist.
  const Netlist back = read_bench(write_bench(syn.wrapper), syn.wrapper.name());
  CHECK_EQ(compute_stats(back).gates, compute_stats(syn.wrapper).gates);

  const WrapperVerification v = verify_wrapper(back, cut, plan, point);
  const WrapperSimResult ws = simulate_wrapper(back, cut, plan);
  CHECK(same_verification(v, verify_by_oracle(ws, cut, plan, point)));
  if (plan.test_time % 64 != 0) ++unaligned_plans;
  CHECK(v.lfsr_phase_identical);
  CHECK(v.topoff_identical);
  CHECK(v.coverage_identical);
  CHECK(v.seeds_identical);
  CHECK(v.signature_identical);
  CHECK(v.ok());
  CHECK_EQ(v.cycles, plan.test_time);
  CHECK_EQ(v.achieved_coverage, point.final_coverage);
  CHECK_EQ(v.achieved_coverage_weighted, point.final_coverage_weighted);
  if (K > 0) {
    CHECK_EQ(v.misr_signature, plan.comp.golden);
    // Empirical aliasing audit: on the surrogate family no detected fault's
    // signature collides with the golden one.
    CHECK_EQ(v.aliasing.escapes, std::size_t{0});
    CHECK(v.aliasing.detected_checked > 0 || plan.final_coverage == 0.0);
    CHECK(v.aliasing.bound <= 1.0 / 65536.0);  // K >= 16
  }

  // Independent extraction: the raw simulation result splits into the two
  // phases, set-identical ROM phase included.
  CHECK_EQ(ws.applied.size(), plan.test_time);
  std::vector<BitVec> rom_phase(ws.applied.begin() + plan.lfsr_patterns,
                                ws.applied.end());
  CHECK(set_identical(rom_phase, plan.topoff));

  // Without seed loads the LFSR free-runs through both phases: its final
  // state must match the software LFSR advanced test_time patterns.  With
  // reseeding the top-off phase overwrites the register (by design); the
  // applied-pattern identities above pin down everything observable.
  if (!plan.comp.enabled || plan.comp.seeds.empty()) {
    Lfsr ref(plan.lfsr_degree, plan.lfsr_taps, plan.lfsr_seed);
    for (std::size_t t = 0; t < plan.test_time; ++t)
      ref.next_pattern(cut.input_count());
    CHECK_EQ(ws.final_lfsr_state, ref.state());
  }
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  CHECK(at != std::string::npos);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// A wrapper wrong in one place must fail verification: a gate edited in
// the .bench text where the plan does not describe the gate, a one-bit
// plan edit re-synthesized where it does, each verified against the
// unedited plan.
void check_mutants() {
  const Netlist cut = make_iscas85("c432s");
  const SimKernel k(cut);
  const std::vector<std::size_t> lengths{128, 256};
  MixedTpgOptions opt;
  opt.podem.backtrack_limit = 20;
  const MixedSweepResult csw = run_mixed_sweep(k, lengths, opt);
  opt.compress = false;
  const MixedSweepResult dsw = run_mixed_sweep(k, lengths, opt);
  const BistPlan cplan = schedule_bist(csw, cut.input_count());
  const BistPlan dplan = schedule_bist(dsw, cut.input_count());
  const MixedSchemeResult& cpoint = csw.points[cplan.point_index];
  const MixedSchemeResult& dpoint = dsw.points[dplan.point_index];
  CHECK(cplan.comp.misr.enabled());
  CHECK(!cplan.comp.seeds.empty());
  CHECK(!dplan.topoff.empty());

  const auto fails = [&](const Netlist& wrapper, const BistPlan& plan,
                         const MixedSchemeResult& point) {
    return !verify_wrapper(wrapper, cut, plan, point).ok();
  };
  const auto fails_text = [&](const std::string& bench, const BistPlan& plan,
                              const MixedSchemeResult& point) {
    return fails(read_bench(bench, "mutant"), plan, point);
  };
  const auto fails_plan = [&](const BistPlan& mutant, const BistPlan& plan,
                              const MixedSchemeResult& point) {
    return fails(synthesize_bist_wrapper(cut, mutant).wrapper, plan, point);
  };

  const std::string text =
      write_bench(synthesize_bist_wrapper(cut, cplan).wrapper);
  CHECK(!fails_text(text, cplan, cpoint));  // the unedited text passes
  // One LFSR feedback XOR flipped to XNOR.
  CHECK(fails_text(replace_once(text, "bist_lfsr_fb7 = XOR(",
                                "bist_lfsr_fb7 = XNOR("),
                   cplan, cpoint));
  // One counter gate: a carry AND turned into an OR.
  CHECK(fails_text(
      replace_once(text, "bist_cnt_k1 = AND(", "bist_cnt_k1 = OR("), cplan,
      cpoint));
  // One ROM bit (decoded architecture).
  BistPlan m = dplan;
  m.topoff[0].flip(0);
  CHECK(fails_plan(m, dplan, dpoint));
  // One MISR feedback tap.
  m = cplan;
  m.comp.misr.taps ^= 1;
  CHECK(fails_plan(m, cplan, cpoint));
  // One stage's MISR input XORed with a counter bit that is 0 on the last
  // cycle: every transition but the last goes wrong, so only checking each
  // one (not the final compare) catches it.
  std::size_t b = 0;
  while (((cplan.test_time - 1) >> b) & 1) ++b;
  CHECK(b < counter_width(cplan.test_time));
  CHECK(fails_text(replace_once(text, "bist_misr_n0 = ", "bist_misr_m0 = ") +
                       "bist_misr_n0 = XOR(bist_misr_m0, bist_cnt_s" +
                       std::to_string(b) + ")\n",
                   cplan, cpoint));
  // One seed-load bit.
  m = cplan;
  m.comp.seeds[0].seed ^= std::uint64_t{1} << (cplan.lfsr_degree - 1);
  CHECK(fails_plan(m, cplan, cpoint));
}

}  // namespace

int main() {
  for (const std::string& name : iscas85_names()) {
    const Netlist cut = make_iscas85(name);
    const SimKernel k(cut);

    MixedTpgOptions opt;
    opt.podem.backtrack_limit = 20;
    opt.fsim.threads = 4;  // engine knobs never change detection results
    const std::vector<std::size_t> lengths{128, 256, 512};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);

    ScheduleOptions so;
    so.lfsr_degree = opt.lfsr_degree;
    so.lfsr_seed = opt.lfsr_seed;
    const BistPlan knee = schedule_bist(sw, cut.input_count(), so);
    check_wrapper(cut, knee, sw.points[knee.point_index]);

    // A second operating point with a different length exercises another
    // counter width / ROM shape (skip when the knee already chose it).
    ScheduleOptions wc = so;
    wc.objective = ScheduleObjective::WeightedCost;
    wc.time_weight = 1.0;
    wc.area_weight = 0.0;  // fastest test: the shortest total time point
    const BistPlan fast = schedule_bist(sw, cut.input_count(), wc);
    if (fast.lfsr_patterns != knee.lfsr_patterns)
      check_wrapper(cut, fast, sw.points[fast.point_index]);
  }

  // Legacy decoded-ROM wrapper (compress=false): the pre-refactor
  // architecture stays synthesizable and verified through the same loop.
  for (const std::string& name : {std::string("c432s"), std::string("c880s")}) {
    const Netlist cut = make_iscas85(name);
    const SimKernel k(cut);
    MixedTpgOptions opt;
    opt.compress = false;
    opt.podem.backtrack_limit = 20;
    const std::vector<std::size_t> lengths{128, 256};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);
    ScheduleOptions so;
    so.lfsr_degree = opt.lfsr_degree;
    so.lfsr_seed = opt.lfsr_seed;
    const BistPlan plan = schedule_bist(sw, cut.input_count(), so);
    CHECK(!plan.comp.enabled);
    check_wrapper(cut, plan, sw.points[plan.point_index]);
  }

  // T=0 degenerate wrapper in both modes: c17's tail is empty at moderate
  // lengths, so the plan stores no ROM.  Compressed, that still carries a
  // MISR (golden over the pseudo-random phase alone); legacy it is LFSR +
  // counter + buffers only — and in both modes the closed-form estimate
  // matches the synthesized breakdown gate for gate (checked inside
  // check_wrapper).
  for (const bool compress : {true, false}) {
    const Netlist cut = make_iscas85("c17");
    const SimKernel k(cut);
    MixedTpgOptions opt;
    opt.compress = compress;
    const std::vector<std::size_t> lengths{256};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);
    CHECK_EQ(sw.points[0].topoff_patterns, std::size_t{0});
    const BistPlan plan = schedule_bist(sw, cut.input_count());
    CHECK_EQ(plan.topoff_patterns, std::size_t{0});
    CHECK_EQ(plan.rom_bits, std::size_t{0});
    CHECK_EQ(plan.comp.enabled, compress);
    if (compress) CHECK(plan.comp.seeds.empty());
    check_wrapper(cut, plan, sw.points[plan.point_index]);
  }

  // Degraded plans in both modes: a deadline that beats the sweep's shared
  // pass leaves the anytime floor's LfsrOnly point at the shortest length,
  // whose 100-cycle test ends inside a frame.
  for (const bool compress : {true, false}) {
    const Netlist cut = make_iscas85("c432s");
    const SimKernel k(cut);
    Deadline d = Deadline::after_checks(0);
    MixedTpgOptions opt;
    opt.compress = compress;
    const std::vector<std::size_t> lengths{100, 300};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt, &d);
    const BistPlan plan = schedule_bist(sw, cut.input_count());
    CHECK(plan.degraded);
    CHECK_EQ(plan.test_time, std::size_t{100});
    check_wrapper(cut, plan, sw.points[plan.point_index]);
  }
  CHECK(unaligned_plans > 0);

  check_mutants();

  return bist_test::summary();
}
