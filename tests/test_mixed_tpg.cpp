// Mixed-scheme pipeline: on every ISCAS85 surrogate the LFSR phase plus the
// PODEM top-off must cover 100% of the detectable (non-redundant,
// non-aborted) collapsed faults, every emitted pattern is fault-sim-verified
// against its target, compaction keeps exactly what reverse-order
// compaction keeps, and the back end, which simulates only the tail faults
// not proven Redundant, reports what the whole tail reports.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "sim/bitpar_sim.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/mixed.hpp"
#include "tpg/mixed_phases.hpp"

using namespace bist;

namespace {

// The compaction rule, checked per pattern against the full-cone oracle:
// the kept set detects every PODEM-detected tail fault, and every kept
// pattern detects one of them that no later kept pattern detects.
void check_compaction(const SimKernel& k, FaultSimulator& fsim,
                      const MixedTpgOptions& opt, const MixedSchemeResult& r) {
  const std::size_t width = k.inputs().size();
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  const FaultSimResult lr =
      fsim.run(lfsr.blocks(width, opt.lfsr_patterns), opt.fsim);
  const auto listed = [](const std::vector<Fault>& v, const Fault& f) {
    return std::find(v.begin(), v.end(), f) != v.end();
  };
  std::vector<Fault> targets;
  for (const std::uint32_t idx : lr.tail_at(lr.patterns)) {
    const Fault& f = fsim.faults()[idx];
    if (!listed(r.redundant_faults, f) && !listed(r.aborted_faults, f))
      targets.push_back(f);
  }
  CHECK_EQ(targets.size(), r.podem_detected);

  // det[p][t]: kept pattern p detects target t.
  std::vector<std::vector<char>> det(r.topoff.size(),
                                     std::vector<char>(targets.size(), 0));
  const std::vector<PatternBlock> blocks = pack_all(r.topoff, width);
  KernelSim sim(k);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    sim.simulate(blocks[b]);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::uint64_t lanes =
          fsim.detect_lanes(targets[t], sim.values(), blocks[b].lane_mask());
      for (std::size_t lane = 0; lane < blocks[b].count; ++lane)
        det[b * 64 + lane][t] = (lanes >> lane) & 1;
    }
  }
  std::vector<char> covered(targets.size(), 0);
  bool each_needed = true;
  for (std::size_t p = r.topoff.size(); p-- > 0;) {
    bool fresh = false;
    for (std::size_t t = 0; t < targets.size(); ++t)
      if (det[p][t] && !covered[t]) covered[t] = fresh = true;
    each_needed = each_needed && fresh;
  }
  CHECK(each_needed);
  CHECK(std::all_of(covered.begin(), covered.end(),
                    [](char c) { return c != 0; }));
}

// The back end's tail simulator leaves out the faults proven Redundant.
// Against the whole tail, Redundant faults included, the point's final
// top-off must detect exactly the faults and first patterns the back end
// reports (its hits and coverage), and no Redundant fault at all.
void check_whole_tail(const SimKernel& k, FaultSimulator& fsim,
                      const MixedTpgOptions& opt, const MixedSchemeResult& r) {
  const std::size_t width = k.inputs().size();
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  const FaultSimResult lr =
      fsim.run(lfsr.blocks(width, opt.lfsr_patterns), opt.fsim);
  const std::vector<std::uint32_t> tail = lr.tail_at(lr.patterns);
  std::vector<Fault> faults;
  std::vector<std::uint32_t> weights;
  for (const std::uint32_t idx : tail) {
    faults.push_back(fsim.faults()[idx]);
    weights.push_back(fsim.weights()[idx]);
  }
  PodemBatch batch(k, 1);
  const std::vector<PodemResult> verdicts = batch.generate(faults, opt.podem);
  std::vector<const PodemResult*> vp;
  for (const PodemResult& v : verdicts) vp.push_back(&v);
  MixedSchemeResult p;
  MixedSweepStats stats;
  const std::vector<mixed_phase::TopoffHit> hits =
      mixed_phase::topoff_phases(k, fsim, lr, tail, vp, opt, p, stats);
  CHECK(p.topoff == r.topoff);  // the same point as run_mixed_tpg's

  FaultSimulator whole(k, std::move(faults), lr.total_faults,
                       std::move(weights));
  const FaultSimResult wr = whole.run(pack_all(p.topoff, width), opt.fsim);
  std::size_t matched = 0, redundant_detected = 0;
  for (std::size_t j = 0; j < tail.size(); ++j) {
    if (wr.first_detected[j] < 0) continue;
    redundant_detected += verdicts[j].status == PodemStatus::Redundant;
    matched += matched < hits.size() && hits[matched].fault == tail[j] &&
               hits[matched].pattern == std::uint32_t(wr.first_detected[j]);
  }
  CHECK_EQ(redundant_detected, std::size_t{0});
  CHECK_EQ(wr.detected, hits.size());
  CHECK_EQ(matched, hits.size());
  CHECK_EQ(double(lr.detected + wr.detected) / double(lr.sim_faults),
           r.final_coverage);
  CHECK_EQ(double(lr.detected_weight + wr.detected_weight) /
               double(lr.total_weight),
           r.final_coverage_weighted);
}

}  // namespace

int main() {
  // --- C17: tiny LFSR budget forces a top-off phase; everything testable --
  {
    const Netlist n = make_iscas85("c17");
    const SimKernel k(n);
    MixedTpgOptions opt;
    opt.lfsr_patterns = 64;
    const MixedSchemeResult r = run_mixed_tpg(k, opt);
    CHECK_EQ(r.lfsr_patterns, 64u);
    CHECK_EQ(r.redundant, 0u);  // C17 has no redundant faults
    CHECK_EQ(r.aborted, 0u);
    CHECK(r.all_verified);
    CHECK_EQ(r.final_coverage, 1.0);
    CHECK_EQ(r.final_coverage_weighted, 1.0);
    CHECK(r.topoff_patterns <= r.topoff_before_compaction);
  }

  // --- full surrogate family ---------------------------------------------
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);
    MixedTpgOptions opt;
    opt.lfsr_patterns = 512;  // short phase: leaves a real LFSR-resistant tail
    opt.podem.backtrack_limit = 50;  // detection saturates well below this
    const MixedSchemeResult r = run_mixed_tpg(k, fsim, opt);
    const std::size_t sim_faults = fsim.faults().size();
    const std::uint64_t total_weight = std::accumulate(
        fsim.weights().begin(), fsim.weights().end(), std::uint64_t{0});

    // All emitted patterns were confirmed by the fault simulator against
    // their target faults, and every tail fault got exactly one verdict.
    CHECK(r.all_verified);
    CHECK_EQ(r.tail_faults, r.podem_detected + r.redundant + r.aborted);

    // 100% of detectable (non-redundant, non-aborted) collapsed faults: the
    // floor below is only reached if the emitted top-off set, re-simulated
    // from scratch, actually detects every PODEM-detected tail fault —
    // random fill may catch extra faults, never fewer.
    const double floor_cov =
        double(sim_faults - r.redundant - r.aborted) / double(sim_faults);
    CHECK(r.final_coverage >= floor_cov);
    CHECK(r.final_coverage <= 1.0);
    CHECK(r.final_coverage_weighted <= 1.0);
    CHECK(r.final_coverage >= r.lfsr_coverage);
    CHECK(r.final_coverage_weighted >= r.lfsr_coverage_weighted);

    // The surrogates embed random-pattern-resistant detectors, so a 512
    // pattern LFSR phase must leave a tail and the top-off must be busy.
    if (name != "c17") {
      CHECK(r.tail_faults > 0u);
      CHECK(r.topoff_patterns > 0u);
    }
    CHECK(r.topoff_patterns <= r.topoff_before_compaction);
    CHECK_EQ(r.topoff.size(), r.topoff_patterns);
    check_compaction(k, fsim, opt, r);
    check_whole_tail(k, fsim, opt, r);

    // Weighted accounting stays glued to the enumerated-fault convention.
    CHECK_EQ(total_weight, enumerate_faults(n).size());
  }

  return bist_test::summary();
}
