// Parallel FFR-aware fault-sim engine checks.
//
// 1. FFR decomposition: every gate reaches exactly one stem by following
//    unique fanouts; stems are exactly the gates with fanout != 1 or PO
//    status; the per-stem member lists partition the netlist.
// 2. Differential: FaultSimResult detection results (first_detected,
//    coverage curves, detected_weight) are bit-identical across threads in
//    {1, 2, 8} and word widths in {1, 4} vs. a per-fault reference (every
//    fault propagated alone through its whole cone with detect_lanes, one
//    64-pattern block at a time), on the full ISCAS85 surrogate family;
//    faulty_gate_evals is thread-count-invariant at fixed width.

#include <bit>
#include <numeric>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"

using namespace bist;

namespace {

void check_ffr_decomposition(const SimKernel& k) {
  const std::size_t cnt = k.gate_count();
  const std::uint32_t* fo_off = k.fanout_offset_data();

  std::vector<std::uint32_t> seen(cnt, 0);
  std::size_t member_total = 0;
  for (std::uint32_t s = 0; s < k.stem_count(); ++s) {
    const KIndex stem = k.stems()[s];
    CHECK(k.is_stem(stem));
    CHECK_EQ(k.stem_of(stem), stem);
    CHECK_EQ(k.stem_ordinal(stem), s);
    for (KIndex m : k.ffr_members(s)) {
      CHECK_EQ(k.stem_of(m), stem);
      ++seen[m];
      ++member_total;
    }
  }
  // Membership partitions the gate set: every gate in exactly one region.
  for (std::uint32_t c : seen) CHECK_EQ(c, 1u);
  CHECK_EQ(member_total, cnt);

  for (KIndex g = 0; g < cnt; ++g) {
    const std::uint32_t nfo = fo_off[g + 1] - fo_off[g];
    const bool stem_gate = nfo != 1 || k.is_output(g);
    CHECK_EQ(k.is_stem(g), stem_gate);
    // Walk unique fanouts until a stem; must land on the recorded root.
    KIndex cur = g;
    unsigned steps = 0;
    while (!k.is_stem(cur) && steps <= k.max_level() + 1) {
      cur = k.fanout_data()[fo_off[cur]];
      ++steps;
    }
    CHECK(k.is_stem(cur));
    CHECK_EQ(k.stem_of(g), cur);
  }
}

// The reference engine: every live fault propagated on its own with
// detect_lanes, block by block, and dropped at its first detection.
FaultSimResult reference_run(const SimKernel& k, FaultSimulator& fsim,
                             std::span<const PatternBlock> blocks,
                             std::size_t total_faults) {
  FaultSimResult r;
  r.total_faults = total_faults;
  r.sim_faults = fsim.faults().size();
  r.total_weight = std::accumulate(fsim.weights().begin(),
                                   fsim.weights().end(), std::uint64_t{0});
  r.first_detected.assign(r.sim_faults, -1);
  KernelSim good(k);
  for (const PatternBlock& blk : blocks) {
    good.simulate(blk);
    for (std::size_t f = 0; f < r.sim_faults; ++f) {
      if (r.first_detected[f] >= 0) continue;
      const std::uint64_t det =
          fsim.detect_lanes(fsim.faults()[f], good.values(), blk.lane_mask());
      if (!det) continue;
      r.first_detected[f] =
          static_cast<std::int64_t>(r.patterns) + std::countr_zero(det);
      ++r.detected;
      r.detected_weight += fsim.weights()[f];
    }
    r.patterns += blk.count;
  }
  return r;
}

bool same_detection(const FaultSimResult& a, const FaultSimResult& b) {
  bool ok = true;
  ok = ok && a.total_faults == b.total_faults;
  ok = ok && a.sim_faults == b.sim_faults;
  ok = ok && a.detected == b.detected;
  ok = ok && a.detected_weight == b.detected_weight;
  ok = ok && a.total_weight == b.total_weight;
  ok = ok && a.patterns == b.patterns;
  ok = ok && a.first_detected == b.first_detected;
  return ok;
}

}  // namespace

int main() {
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);

    check_ffr_decomposition(k);

    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const auto blocks = lfsr.blocks(n.input_count(), 512);

    const FaultSimResult ref =
        reference_run(k, fsim, blocks, enumerate_faults(n).size());
    CHECK(ref.detected > 0u);

    std::uint64_t evals_by_width[2] = {0, 0};
    for (const unsigned width : {1u, 4u}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        FaultSimOptions opt;
        opt.threads = threads;
        opt.word_width = width;
        const FaultSimResult r = fsim.run(blocks, opt);
        CHECK(same_detection(ref, r));
        CHECK_EQ(r.threads, threads);
        CHECK_EQ(r.word_width, width);
        // Work measure is a deterministic function of (engine, width):
        // partitioning across workers must not change it.
        const unsigned wslot = width == 1 ? 0 : 1;
        if (evals_by_width[wslot] == 0)
          evals_by_width[wslot] = r.faulty_gate_evals;
        CHECK_EQ(r.faulty_gate_evals, evals_by_width[wslot]);
      }
    }
  }

  // The FFR engine must also agree with the reference on an explicit
  // sub-list with weights (the tail-fault path run_mixed_tpg exercises).
  {
    const Netlist n = make_iscas85("c432s");
    const SimKernel k(n);
    FaultSimulator full(k);
    std::vector<Fault> sub(full.faults().begin(),
                           full.faults().begin() + full.faults().size() / 3);
    std::vector<std::uint32_t> w(full.weights().begin(),
                                 full.weights().begin() + sub.size());
    FaultSimulator part(k, sub, 2 * sub.size(), w);
    Lfsr lfsr = Lfsr::maximal(32, 0xBEEF);
    const auto blocks = lfsr.blocks(n.input_count(), 256);
    const FaultSimResult ref = reference_run(k, part, blocks, 2 * sub.size());
    FaultSimOptions opt;
    opt.threads = 8;
    opt.word_width = 4;
    CHECK(same_detection(ref, part.run(blocks, opt)));
  }

  return bist_test::summary();
}
