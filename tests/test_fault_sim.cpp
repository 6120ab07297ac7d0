// Fault model + PPSFP simulator checks: collapsing fires and is exact on
// C17, coverage curves are monotone on every ISCAS surrogate, exhaustive
// patterns detect every C17 fault, dropping does not change detection, and
// the stem-shared per-output diffs match the per-fault oracle at both sweep
// widths.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"

using namespace bist;

namespace {

// OutputDiffSweep derives fault f's output diffs as stem_word(f) & D_g
// from one cone propagation per stem per block group; output_diffs
// propagates f alone.  They must agree on every (fault, block, output):
// zero before the fault's join block and for faults that never join, exact
// from that block on, on each block's own live lanes.  A fault that never
// joins must never flip an output.  Groups come in ascending block order.
void check_diff_sweep(const char* what, const SimKernel& k,
                      FaultSimulator& sim, std::span<const PatternBlock> blocks,
                      std::span<const std::uint32_t> join) {
  const auto outs = k.outputs();
  const std::size_t n_outs = outs.size();
  const std::size_t n_blocks = blocks.size();
  std::vector<std::uint64_t> got(sim.faults().size() * n_blocks * n_outs, 0);
  std::size_t visits = 0;
  bool ordered = true;
  std::size_t next_block = 0;
  OutputDiffSweep sweep(sim, blocks, join);
  while (sweep.next()) {
    if (sweep.first_block() < next_block) ordered = false;
    next_block = sweep.first_block() + sweep.group_blocks();
    CHECK(next_block <= n_blocks);
    std::size_t w = 0, h = 0;
    for (const OutputDiffSweep::Stem& st : sweep.stems()) {
      CHECK(h < st.hits_end);
      for (; w < st.words_end; ++w) {
        const auto& [f, sw] = sweep.words()[w];
        bool observed = false;
        for (std::size_t i = h; i < st.hits_end; ++i) {
          const auto& [gate, lanes] = sweep.hits()[i];
          for (std::size_t j = 0; j < sweep.group_blocks(); ++j) {
            const std::uint64_t d = w_sub(sw, j) & w_sub(lanes, j);
            if (!d) continue;
            observed = true;
            ++visits;
            const std::size_t b = sweep.first_block() + j;
            for (std::size_t o = 0; o < n_outs; ++o) {
              if (outs[o] != gate) continue;
              std::uint64_t& slot = got[(f * n_blocks + b) * n_outs + o];
              CHECK_EQ(slot, std::uint64_t{0});  // each output listed once
              slot = d;
            }
          }
        }
        CHECK(observed);  // only faults that reach an output are kept
      }
      h = st.hits_end;
    }
  }
  CHECK(ordered);
  CHECK(visits > 0);
  KernelSim good(k);
  std::vector<std::uint64_t> want(n_outs);
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    good.simulate(blocks[b]);
    const std::uint64_t lanes = blocks[b].lane_mask();
    for (std::size_t f = 0; f < sim.faults().size(); ++f) {
      sim.output_diffs(sim.faults()[f], good.values(), lanes, want);
      const bool never = join[f] == OutputDiffSweep::kNever;
      const bool joined = !never && b >= join[f];
      for (std::size_t o = 0; o < n_outs; ++o) {
        const std::uint64_t g = got[(f * n_blocks + b) * n_outs + o];
        if (g != (joined ? want[o] : 0) || (never && want[o])) ++mismatches;
      }
    }
  }
  if (mismatches)
    std::printf("%s: %zu stem-shared output diff mismatches\n", what,
                mismatches);
  CHECK_EQ(mismatches, std::size_t{0});
}

// Join blocks of a piece starting at block `first`: each fault joins at the
// block of its first detection, `fd` as run() reports it over the piece.
void join_piece(std::span<const std::int64_t> fd, std::size_t first,
                std::vector<std::uint32_t>& join) {
  for (std::size_t f = 0; f < fd.size(); ++f)
    if (fd[f] >= 0)
      join[f] = std::min<std::uint32_t>(
          join[f], static_cast<std::uint32_t>(first + fd[f] / 64));
}

}  // namespace

int main() {
  // --- C17: exact fault accounting --------------------------------------
  {
    const Netlist c17 = make_c17();
    const auto all = enumerate_faults(c17);
    // 11 output nets * 2 + 6 fanout branches * 2 (stems G3, G11, G16 each
    // feed two gates)
    CHECK_EQ(all.size(), 34u);
    const auto collapsed = collapse_faults(c17, all);
    // 22 equivalence classes (the textbook C17 number), minus the two
    // dominance-dropped internal NAND output s-a-0 faults (G11, G16; G22 and
    // G23 are POs and stay).
    CHECK_EQ(collapsed.size(), 20u);
    CHECK(collapsed.size() < all.size());
    for (const Fault& f : collapsed) CHECK(!fault_name(c17, f).empty());

    // exhaustive 32 patterns detect every collapsed fault
    const SimKernel k(c17);
    std::vector<BitVec> pats;
    for (unsigned v = 0; v < 32; ++v) {
      BitVec p(5);
      for (unsigned i = 0; i < 5; ++i) p.set(i, (v >> i) & 1);
      pats.push_back(p);
    }
    const auto blocks = pack_all(pats, 5);
    FaultSimulator fsim(k);
    const FaultSimResult r = fsim.run(blocks);
    CHECK_EQ(r.total_faults, 34u);
    CHECK_EQ(r.sim_faults, 20u);
    CHECK_EQ(r.detected, 20u);
    CHECK_EQ(r.patterns, 32u);
    CHECK_EQ(r.final_coverage(), 1.0);
    for (std::int64_t fd : r.first_detected) CHECK(fd >= 0 && fd < 32);

    // Class sizes cover the whole enumerated list (dominance-dropped classes
    // are attributed to a dominating class), so the weighted coverage
    // reaches 100% on a fully-detected run.
    const auto sized = collapse_faults_sized(c17, all);
    CHECK(sized.faults == collapsed);
    CHECK_EQ(sized.class_size.size(), sized.faults.size());
    std::size_t size_sum = 0;
    for (std::uint32_t s : sized.class_size) {
      CHECK(s >= 1u);
      size_sum += s;
    }
    CHECK_EQ(size_sum, all.size());
    CHECK_EQ(r.total_weight, 34u);
    CHECK_EQ(r.detected_weight, 34u);
    CHECK_EQ(r.final_coverage_weighted(), 1.0);
  }

  // --- prefix-view edge cases: length 0 and beyond the run ---------------
  {
    const Netlist n = make_iscas85("c432s");
    const SimKernel k(n);
    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const auto blocks = lfsr.blocks(n.input_count(), 256);
    const FaultSimResult full = fsim.run(blocks);

    // length 0: nothing detected, every simulated fault in the tail.
    CHECK_EQ(full.tail_at(0).size(), full.sim_faults);
    const FaultSimResult p0 = fsim.prefix_result(full, 0);
    CHECK_EQ(p0.patterns, 0u);
    CHECK_EQ(p0.detected, 0u);
    CHECK_EQ(p0.detected_weight, 0u);
    CHECK_EQ(p0.final_coverage(), 0.0);
    CHECK_EQ(p0.final_coverage_weighted(), 0.0);
    for (std::int64_t fd : p0.first_detected) CHECK_EQ(fd, -1);

    // lengths beyond the run clamp to the full result instead of throwing.
    for (const std::size_t beyond : {257u, 100000u}) {
      CHECK(full.tail_at(beyond) == full.tail_at(full.patterns));
      const FaultSimResult pb = fsim.prefix_result(full, beyond);
      CHECK_EQ(pb.patterns, full.patterns);
      CHECK_EQ(pb.detected, full.detected);
      CHECK_EQ(pb.detected_weight, full.detected_weight);
      CHECK(pb.first_detected == full.first_detected);
      CHECK_EQ(pb.final_coverage(), full.final_coverage());
      CHECK_EQ(pb.final_coverage_weighted(), full.final_coverage_weighted());
    }

    // Mismatched fault list still throws: the clamp is about lengths only.
    FaultSimulator other(k, {fsim.faults().begin(), fsim.faults().end() - 1},
                         full.total_faults);
    CHECK_THROWS(other.prefix_result(full, 10));
  }

  // --- dominance weight attribution goes to the dominating class ---------
  // g = AND(a, b), o = XOR(g, c).  g out s-a-1 is dominance-dropped; its
  // weight belongs with the dominating input s-a-1 class (here a s-a-1 via
  // the fanout-free connection), NOT the equivalent-of-s-a-0 class: a test
  // for {a0, b0, g0} does not detect g s-a-1.
  {
    Netlist n("attr");
    const GateId a = n.add_input("a");
    const GateId b = n.add_input("b");
    const GateId c = n.add_input("c");
    const GateId g = n.add_gate(GateType::And, {a, b}, "g");
    const GateId o = n.add_gate(GateType::Xor, {g, c}, "o");
    n.add_output(o);
    n.freeze();
    const auto all = enumerate_faults(n);
    CHECK_EQ(all.size(), 10u);  // 5 nets x 2, no fanout branches
    const auto sized = collapse_faults_sized(n, all);
    CHECK_EQ(sized.faults.size(), 7u);
    std::size_t sum = 0;
    for (std::size_t i = 0; i < sized.faults.size(); ++i) {
      sum += sized.class_size[i];
      if (sized.faults[i] == Fault{a, -1, 0})
        CHECK_EQ(sized.class_size[i], 3u);  // {a0, b0, g0}; g1 NOT counted here
      if (sized.faults[i] == Fault{a, -1, 1})
        CHECK_EQ(sized.class_size[i], 2u);  // {a1} + dominated g1
    }
    CHECK_EQ(sum, 10u);

    // Pattern (1,1,0) detects {a0,b0,g0}, c1 and o0: 5 of the 10 enumerated
    // faults (it does NOT detect g s-a-1).
    const SimKernel k(n);
    FaultSimulator fsim(k);
    BitVec p(3);
    p.set(0, true);
    p.set(1, true);
    const auto blocks = pack_all({&p, 1}, 3);
    const FaultSimResult r = fsim.run(blocks);
    CHECK_EQ(r.detected_weight, 5u);
    CHECK_EQ(r.total_weight, 10u);
    CHECK_EQ(r.final_coverage_weighted(), 0.5);
  }

  // --- whole surrogate family: consistent counts, collapsing fires ------
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);

    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const auto blocks = lfsr.blocks(n.input_count(), 512);
    const FaultSimResult r = fsim.run(blocks);

    CHECK(r.sim_faults < r.total_faults);  // collapsing actually fired
    CHECK(r.sim_faults > 0u);
    CHECK_EQ(r.patterns, 512u);
    CHECK_EQ(r.total_weight, r.total_faults);
    CHECK(r.final_coverage_weighted() <= 1.0);
    CHECK(r.final_coverage() <= 1.0);
    // detected counts consistent with first_detected
    std::size_t firsts = 0;
    std::uint64_t weight = 0;
    for (std::size_t f = 0; f < r.first_detected.size(); ++f)
      if (const std::int64_t fd = r.first_detected[f]; fd >= 0) {
        ++firsts;
        weight += fsim.weights()[f];
        CHECK(fd < std::int64_t(r.patterns));
      }
    CHECK_EQ(firsts, r.detected);
    CHECK_EQ(weight, r.detected_weight);
    const double expect_final =
        r.sim_faults ? double(r.detected) / double(r.sim_faults) : 0.0;
    CHECK_EQ(r.final_coverage(), expect_final);
    // random patterns find a healthy fraction of faults on every surrogate
    CHECK(r.final_coverage() > 0.5);
  }

  // --- Stem-shared per-output diffs == per-fault full-cone oracle ---------
  // 1000 patterns = 15 full blocks + 40 lanes (a partial last block);
  // 130 patterns = 3 blocks (one group short of kMaxWordWidth blocks);
  // 256 = exactly one wide group; 300 = a wide group plus a partial block.
  // Then all four as the pieces of one block list, each starting at lane 0,
  // so partial blocks sit inside wide groups and each fault joins at its
  // earliest detecting piece.
  for (const char* name : {"c432s", "c880s", "c1355s"}) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator sim(k);
    const std::size_t nf = sim.faults().size();
    std::vector<PatternBlock> pieces;
    std::vector<std::uint32_t> pieces_join(nf, OutputDiffSweep::kNever);
    for (const std::size_t pats : {1000u, 130u, 256u, 300u}) {
      const auto blocks = Lfsr::maximal(24, 7).blocks(n.input_count(), pats);
      const FaultSimResult r = sim.run(blocks);
      const std::string what = std::string(name) + " @" + std::to_string(pats);
      std::vector<std::uint32_t> join(nf, OutputDiffSweep::kNever);
      join_piece(r.first_detected, 0, join);
      check_diff_sweep(what.c_str(), k, sim, blocks, join);
      join_piece(r.first_detected, pieces.size(), pieces_join);
      pieces.insert(pieces.end(), blocks.begin(), blocks.end());
      if (pats != 1000) continue;
      // Joins pushed into blocks 1..4, so faults join in the middle of wide
      // groups and the first group starts at block 1.
      for (std::size_t f = 0; f < nf; ++f)
        if (join[f] != OutputDiffSweep::kNever)
          join[f] = std::max<std::uint32_t>(join[f], 1 + f % 4);
      check_diff_sweep((what + " late joins").c_str(), k, sim, blocks, join);
    }
    check_diff_sweep((std::string(name) + " pieces").c_str(), k, sim, pieces,
                     pieces_join);
  }

  return bist_test::summary();
}
