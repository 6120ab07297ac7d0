// Mixed-scheme pipeline: on every ISCAS85 surrogate the LFSR phase plus the
// PODEM top-off must cover 100% of the detectable (non-redundant,
// non-aborted) collapsed faults, every emitted pattern is fault-sim-verified
// against its target, and compaction never grows the set or loses coverage.

#include <numeric>
#include <string>

#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/mixed.hpp"

using namespace bist;

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

    // Weighted accounting stays glued to the enumerated-fault convention.
    CHECK_EQ(total_weight, enumerate_faults(n).size());
  }

  return bist_test::summary();
}
