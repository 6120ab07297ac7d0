// Differential check of the incremental mixed-scheme sweep engine: every
// sweep point must be bit-identical to an independent run_mixed_tpg at that
// length — tail size, PODEM verdicts and counters, the emitted top-off
// pattern sets before and after compaction, the compressed test data (seed
// schedules, fallback rows, MISR spec with its audited fold, golden
// signature) and both coverage conventions — at every PODEM thread count in
// {1, 2, 8}, on the full ISCAS85 surrogate family.  The sweep derives each
// point's LFSR-phase result as a prefix of one shared pass; that prefix is
// checked directly against an independent run at every sweep length (first
// detection indices and coverage-curve doubles).  The PODEM counters are
// pinned as the store serializes them: the calls are the distinct faults of
// the union tail (the sweep's one PODEM session), calls plus cache hits the
// distinct points' tails, and the record is byte-identical at every thread
// count.  Also checks the tail helper and the parallel PODEM path of
// run_mixed_tpg itself against its serial reduction.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "store/serialize.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/mixed.hpp"
#include "tpg/sweep.hpp"

using namespace bist;

namespace {

// Everything except faulty_gate_evals (the sweep's derived prefixes carry
// the shared pass's work measure, documented in prefix_result).
bool same_lfsr_result(const FaultSimResult& a, const FaultSimResult& b) {
  bool ok = true;
  ok = ok && a.total_faults == b.total_faults;
  ok = ok && a.sim_faults == b.sim_faults;
  ok = ok && a.detected == b.detected;
  ok = ok && a.detected_weight == b.detected_weight;
  ok = ok && a.total_weight == b.total_weight;
  ok = ok && a.patterns == b.patterns;
  ok = ok && a.threads == b.threads;
  ok = ok && a.word_width == b.word_width;
  ok = ok && a.first_detected == b.first_detected;
  return ok;
}

}  // namespace

int main() {
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);

    // Unsorted with a duplicate: the engine must hand results back in caller
    // order regardless of its internal descending evaluation.  The deep
    // 7-point sweep down to a 64-pattern phase (large tails, so the naive
    // reference loop is expensive) runs on two representative circuits; the
    // rest of the family gets 3 moderate lengths to keep the runtime sane.
    const bool deep = name == "c17" || name == "c432s" || name == "c880s";
    const std::vector<std::size_t> lengths =
        deep ? std::vector<std::size_t>{256, 64, 512, 128, 320, 448, 64}
             : std::vector<std::size_t>{384, 256, 512};
    const std::size_t min_pos = 1;  // the min length sits at index 1 in both

    MixedTpgOptions opt;
    // Small abort budget: the surrogate tails are mostly hard reconvergent
    // faults that burn the whole limit, so the naive reference loop's cost
    // scales with it; 20 keeps detected/redundant/aborted all represented.
    opt.podem.backtrack_limit = 20;
    opt.fsim.threads = 4;  // fsim engine knobs never change detection results

    // Prefix/tail helpers against an independent shorter run, at every
    // sweep length (each a multiple of the 64-pattern block): the sweep
    // hands exactly these prefixes to each point's top-off phases.  The
    // union of the tails is the sweep's one PODEM session.
    std::set<std::uint32_t> union_tail;
    {
      const std::size_t lmax = *std::max_element(lengths.begin(), lengths.end());
      Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
      const auto blocks = lfsr.blocks(n.input_count(), lmax);
      const FaultSimResult full = fsim.run(blocks, opt.fsim);
      for (const std::size_t len : lengths) {
        const FaultSimResult sub = fsim.run(
            std::span<const PatternBlock>(blocks).first(len / 64), opt.fsim);
        const FaultSimResult pre = fsim.prefix_result(full, len);
        CHECK(same_lfsr_result(pre, sub));
        const auto tail = full.tail_at(len);
        CHECK_EQ(tail.size(), full.sim_faults - pre.detected);
        for (const std::uint32_t idx : tail) {
          const std::int64_t fd = full.first_detected[idx];
          CHECK(fd < 0 || fd >= std::int64_t(len));
          union_tail.insert(idx);
        }
      }
      CHECK_EQ(full.tail_at(full.patterns).size(),
               full.sim_faults - full.detected);
    }

    // Independent per-length references (serial PODEM reduction); duplicate
    // lengths reuse the first computation — run_mixed_tpg is deterministic.
    std::vector<MixedSchemeResult> ref;
    for (std::size_t p = 0; p < lengths.size(); ++p) {
      const auto prev = std::find(lengths.begin(), lengths.begin() + p, lengths[p]);
      if (prev != lengths.begin() + p) {
        ref.push_back(ref[prev - lengths.begin()]);
        continue;
      }
      MixedTpgOptions o = opt;
      o.lfsr_patterns = lengths[p];
      o.podem_threads = 1;
      ref.push_back(run_mixed_tpg(k, fsim, o));
    }

    std::vector<std::uint8_t> bytes_at_1;
    for (const unsigned threads : {1u, 2u, 8u}) {
      MixedTpgOptions o = opt;
      o.podem_threads = threads;
      const MixedSweepResult sw = run_mixed_sweep(k, fsim, lengths, o);
      // The counters as the store keeps them: each distinct fault of the
      // union tail is one engine call, whichever point decides it, and the
      // record is byte-identical at every thread count.
      const std::vector<std::uint8_t> bytes = serialize_sweep(sw);
      const MixedSweepStats kept = deserialize_sweep(bytes).stats;
      CHECK_EQ(kept.podem_calls, union_tail.size());
      if (threads == 1) bytes_at_1 = bytes;
      CHECK(bytes == bytes_at_1);
      CHECK_EQ(sw.points.size(), lengths.size());
      CHECK_EQ(sw.lengths.size(), lengths.size());
      for (std::size_t p = 0; p < lengths.size(); ++p) {
        CHECK_EQ(sw.lengths[p], lengths[p]);
        CHECK(sw.points[p] == ref[p]);
      }
      // Each distinct fault is generated at most once across the sweep: the
      // calls are exactly the largest tail (the one at the min length), and
      // calls + hits account for every distinct point's tail walk.
      CHECK_EQ(sw.stats.podem_calls, sw.points[min_pos].tail_faults);
      std::size_t distinct_tails = 0;
      for (std::size_t p = 0; p < lengths.size(); ++p)
        if (p == 0 ||
            std::find(lengths.begin(), lengths.begin() + p, lengths[p]) ==
                lengths.begin() + p)
          distinct_tails += sw.points[p].tail_faults;
      CHECK_EQ(sw.stats.podem_calls + sw.stats.podem_cache_hits,
               distinct_tails);
      CHECK_EQ(kept.podem_calls + kept.podem_cache_hits, distinct_tails);
      CHECK_EQ(sw.stats.podem_threads, threads);
    }
  }

  // run_mixed_tpg's own parallel PODEM path must match its serial reduction
  // (one representative circuit keeps the runtime sane; the sweep loop above
  // already covers the batch engine at every thread count).
  {
    const Netlist n = make_iscas85("c432s");
    const SimKernel k(n);
    FaultSimulator fsim(k);
    MixedTpgOptions o;
    o.lfsr_patterns = 256;
    o.podem.backtrack_limit = 50;
    o.podem_threads = 1;
    const MixedSchemeResult ref = run_mixed_tpg(k, fsim, o);
    for (const unsigned threads : {2u, 8u}) {
      o.podem_threads = threads;
      CHECK(run_mixed_tpg(k, fsim, o) == ref);
    }
  }

  return bist_test::summary();
}
