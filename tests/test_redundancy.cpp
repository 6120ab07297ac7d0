// The implication pre-pass (fault/redundancy.hpp) against ground truth.
//
//  - Soundness, exhaustively: on small surrogates (6-14 PIs; random logic,
//    ALU and ECC flavours; 25 seeds each) every one of the 2^n patterns is
//    fault-simulated over the full uncollapsed fault list.  No fault the
//    check proves, and no fault a PodemBatch (2 threads) calls Redundant,
//    may be detected by any of them.
//  - Soundness on the ISCAS85 surrogates: no fault that a 512-pattern LFSR
//    pass detects may be proven.
//  - Yield: the check must prove a real share of the untestable faults, and
//    of c1355s's 512-pattern LFSR tail; a check that proves nothing fails.

#include <cstdio>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "fault/redundancy.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"

using namespace bist;

namespace {

// All 2^width patterns, pattern p setting PI i to bit i of p.
std::vector<PatternBlock> exhaustive(std::size_t width) {
  const std::size_t total = std::size_t{1} << width;
  std::vector<PatternBlock> blocks;
  for (std::size_t b = 0; b < total; b += 64) {
    PatternBlock blk;
    blk.width = width;
    blk.count = std::min<std::size_t>(64, total - b);
    for (std::size_t i = 0; i < width; ++i) {
      std::uint64_t w = 0;
      for (std::size_t l = 0; l < blk.count; ++l)
        w |= std::uint64_t(((b + l) >> i) & 1) << l;
      blk.input_words.push_back(w);
    }
    blocks.push_back(std::move(blk));
  }
  return blocks;
}

struct Tally {
  std::size_t cuts = 0, faults = 0, untestable = 0, proven = 0,
              unsound = 0, podem_redundant = 0, podem_unsound = 0;
};

void check_exhaustive(const SurrogateSpec& spec, Tally& t) {
  const Netlist n = make_surrogate(spec);
  const SimKernel k(n);
  std::vector<Fault> faults = enumerate_faults(n);
  const std::size_t total = faults.size();
  FaultSimulator fsim(k, faults, total);
  const FaultSimResult r = fsim.run(exhaustive(n.input_count()));
  RedundancyCheck check(k);
  PodemBatch batch(k, 2);
  PodemOptions opt;
  opt.backtrack_limit = 50;
  const std::vector<PodemResult> verdicts = batch.generate(faults, opt);
  ++t.cuts;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool testable = r.first_detected[i] >= 0;
    const bool proven = check.untestable(faults[i]);
    const bool redundant = verdicts[i].status == PodemStatus::Redundant;
    ++t.faults;
    t.untestable += !testable;
    t.proven += proven;
    t.unsound += proven && testable;
    t.podem_redundant += redundant;
    t.podem_unsound += redundant && testable;
  }
}

}  // namespace

int main() {
  // --- exhaustive soundness on small surrogates --------------------------
  {
    Tally t;
    const BlockFlavor flavors[] = {BlockFlavor::RandomLogic, BlockFlavor::Alu,
                                   BlockFlavor::Ecc};
    for (const BlockFlavor flavor : flavors)
      for (std::uint64_t seed = 1; seed <= 25; ++seed)
        for (const unsigned pis : {6u, 9u, 12u, 14u}) {
          SurrogateSpec spec;
          spec.name = "small";
          spec.inputs = pis;
          spec.outputs = 2 + pis / 4;
          spec.target_gates = 12 * pis;
          spec.flavor = flavor;
          spec.rpr_detectors = 2;
          spec.rpr_width = pis / 2;
          spec.seed = seed * 131 + pis;
          check_exhaustive(spec, t);
        }
    std::printf("exhaustive: %zu CUTs, %zu faults, %zu untestable, %zu "
                "proven (%zu unsound); podem %zu redundant (%zu unsound)\n",
                t.cuts, t.faults, t.untestable, t.proven, t.unsound,
                t.podem_redundant, t.podem_unsound);
    CHECK_EQ(t.unsound, 0u);
    CHECK_EQ(t.podem_unsound, 0u);
    CHECK(t.proven <= t.untestable);
    CHECK(t.podem_redundant >= t.proven);
    // Yield floor: the check proves most untestable faults of these CUTs.
    CHECK(2 * t.proven > t.untestable);
  }

  // --- the ISCAS85 surrogates: nothing random patterns detect is proven ---
  for (const std::string& name : iscas85_names()) {
    if (name == "c17") continue;
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const FaultSimResult r = fsim.run(lfsr.blocks(n.input_count(), 512));
    RedundancyCheck check(k);
    std::size_t tail = 0, proven = 0, unsound = 0;
    for (std::size_t i = 0; i < fsim.faults().size(); ++i) {
      const bool p = check.untestable(fsim.faults()[i]);
      if (r.first_detected[i] >= 0) {
        unsound += p;
      } else {
        ++tail;
        proven += p;
      }
    }
    std::printf("%s: %zu faults, 512-pattern tail %zu, %zu proven, %zu "
                "detected ones proven\n",
                name.c_str(), fsim.faults().size(), tail, proven, unsound);
    CHECK_EQ(unsound, 0u);
    // Yield floor on the cold-podem circuit shape.
    if (name == "c1355s") CHECK(proven >= 200);
  }

  return bist_test::summary();
}
