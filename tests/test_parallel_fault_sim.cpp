// Parallel FFR-aware fault-sim engine checks.
//
// 1. FFR decomposition: every gate reaches exactly one stem by following
//    unique fanouts; stems are exactly the gates with fanout != 1 or PO
//    status; the per-stem member lists partition the netlist.
// 2. Differential: FaultSimResult detection results (first_detected,
//    coverage curves, detected_weight) are bit-identical across threads in
//    {1, 2, 8} and word widths in {1, 4} vs. the legacy per-fault seed-path
//    engine, on the full ISCAS85 surrogate family; faulty_gate_evals is
//    thread-count-invariant at fixed width.

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

    FaultSimOptions ref_opt;
    ref_opt.ffr = false;  // legacy per-fault seed path
    const FaultSimResult ref = fsim.run(blocks, ref_opt);
    CHECK_EQ(ref.threads, 1u);
    CHECK_EQ(ref.word_width, 1u);
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
        CHECK_EQ(r.word_width, BIST_WIDE_WORDS ? width : 1u);
        // Work measure is a deterministic function of (engine, width):
        // partitioning across workers must not change it.
        const unsigned wslot = width == 1 ? 0 : 1;
        if (evals_by_width[wslot] == 0)
          evals_by_width[wslot] = r.faulty_gate_evals;
        CHECK_EQ(r.faulty_gate_evals, evals_by_width[wslot]);
      }
    }
  }

  // The FFR engine must also agree with legacy on an explicit sub-list with
  // weights (the tail-fault path run_mixed_tpg exercises).
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
    FaultSimOptions ref_opt;
    ref_opt.ffr = false;
    const FaultSimResult ref = part.run(blocks, ref_opt);
    FaultSimOptions opt;
    opt.threads = 8;
    opt.word_width = 4;
    CHECK(same_detection(ref, part.run(blocks, opt)));
  }

  return bist_test::summary();
}
