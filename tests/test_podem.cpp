// PODEM golden tests on C17 (every collapsed fault testable, sensitization
// conditions of a hand-analyzed fault, redundancy recognition, abort
// reporting) plus the property test: every cube PODEM emits is confirmed by
// the PPSFP fault simulator to detect its target fault — under both all-0
// and all-1 completion of the don't-care bits.  A checked-in digest pins the
// search bit for bit (status, cube, backtracks, decisions of every LFSR-tail
// fault on three surrogates), so an implication-engine change that alters a
// single decision fails here — through the lane-parallel batch at 1 and 2
// threads and every lane occupancy, and through one fault at a time — and a
// batch reused over a shuffled fault order must reproduce the in-order
// per-fault results.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

using namespace bist;

namespace {

BitVec fill(const std::vector<Ternary>& cube, bool x_value) {
  BitVec p(cube.size());
  for (std::size_t i = 0; i < cube.size(); ++i)
    p.set(i, cube[i] == Ternary::VX ? x_value : cube[i] == Ternary::V1);
  return p;
}

// True iff `pattern` detects f, via the PPSFP propagate (single lane).
bool fault_sim_confirms(FaultSimulator& fsim, const SimKernel& k,
                        const Fault& f, const BitVec& pattern) {
  KernelSim sim(k);
  const PatternBlock blk = pack_patterns({&pattern, 1}, pattern.size());
  sim.simulate(blk);
  return (fsim.detect_lanes(f, sim.values(), blk.lane_mask()) & 1) != 0;
}

// Faults of n left undetected by a short maximal-LFSR phase.
std::vector<Fault> lfsr_tail(const Netlist& n, FaultSimulator& fsim,
                             std::size_t patterns) {
  Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
  const FaultSimResult lr = fsim.run(lfsr.blocks(n.input_count(), patterns));
  std::vector<Fault> tail;
  for (std::size_t i = 0; i < lr.first_detected.size(); ++i)
    if (lr.first_detected[i] < 0) tail.push_back(fsim.faults()[i]);
  return tail;
}

void hash_result(Hasher& h, const PodemResult& r) {
  h.u8(static_cast<std::uint8_t>(r.status)).u32(r.backtracks).u64(r.decisions);
  h.u64(r.cube.size());
  for (Ternary t : r.cube) h.u8(static_cast<std::uint8_t>(t));
}

bool same_result(const PodemResult& a, const PodemResult& b) {
  return a.status == b.status && a.cube == b.cube &&
         a.backtracks == b.backtracks && a.decisions == b.decisions;
}

}  // namespace

int main() {
  // --- C17: every collapsed fault has a test, every cube is confirmed ----
  {
    const Netlist c17 = make_c17();
    const SimKernel k(c17);
    FaultSimulator fsim(k);
    Podem podem(k);
    for (const Fault& f : fsim.faults()) {
      const PodemResult r = podem.generate(f);
      CHECK_EQ(int(r.status), int(PodemStatus::Detected));
      if (r.status != PodemStatus::Detected) continue;
      CHECK_EQ(r.cube.size(), c17.input_count());
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, false)));
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, true)));
    }

    // Hand-analyzed fault: input "1" s-a-0.  Activation needs 1=1; the only
    // propagation path is 1 -> 10 -> 22, which requires 3=1 (sensitize gate
    // 10) and 16=1 at gate 22.  Every test cube must satisfy all three.
    const Fault f1sa0{c17.find("1"), -1, 0};
    const PodemResult r = podem.generate(f1sa0);
    CHECK_EQ(int(r.status), int(PodemStatus::Detected));
    const std::uint32_t pi1 = c17.input_index(c17.find("1"));
    const std::uint32_t pi3 = c17.input_index(c17.find("3"));
    CHECK_EQ(int(r.cube[pi1]), int(Ternary::V1));
    CHECK_EQ(int(r.cube[pi3]), int(Ternary::V1));
    // The cube leaves at least one of the five inputs unconstrained: PODEM
    // assigns only what the objective chain needed.
    std::size_t x_bits = 0;
    for (Ternary t : r.cube) x_bits += t == Ternary::VX;
    CHECK(x_bits >= 1);

    // A fault with a bad pin throws out of a batch that has other searches
    // in flight; the next call starts every lane afresh.
    PodemBatch batch(k, 1);
    const std::span<const Fault> all = fsim.faults();
    const std::vector<PodemResult> before = batch.generate(all);
    std::vector<Fault> bad(all.begin(), all.end());
    bad.insert(bad.begin() + 3, Fault{c17.find("10"), 2, 0});  // 2-input NAND
    CHECK_THROWS(batch.generate(bad));
    const std::vector<PodemResult> after = batch.generate(all);
    CHECK_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i)
      CHECK(same_result(after[i], before[i]));
  }

  // --- redundancy recognition -------------------------------------------
  // o = OR(a, NOT a) is constant 1: faults that only change o towards 1 are
  // untestable, while NOT-output s-a-0 makes o follow a and is testable.
  {
    Netlist n("const1");
    const GateId a = n.add_input("a");
    const GateId nb = n.add_gate(GateType::Not, {a}, "nb");
    const GateId o = n.add_gate(GateType::Or, {a, nb}, "o");
    n.add_output(o);
    n.freeze();
    const SimKernel k(n);
    Podem podem(k);

    CHECK_EQ(int(podem.generate({o, -1, 1}).status), int(PodemStatus::Redundant));
    CHECK_EQ(int(podem.generate({a, -1, 0}).status), int(PodemStatus::Redundant));
    CHECK_EQ(int(podem.generate({o, 0, 1}).status), int(PodemStatus::Redundant));

    const PodemResult det = podem.generate({nb, -1, 0});
    CHECK_EQ(int(det.status), int(PodemStatus::Detected));
    CHECK_EQ(int(det.cube[0]), int(Ternary::V0));  // needs a = 0

    // Proving redundancy takes at least one backtrack, so a zero backtrack
    // budget must abort instead of claiming redundancy.
    PodemOptions strict;
    strict.backtrack_limit = 0;
    const PodemResult ab = podem.generate({o, -1, 1}, strict);
    CHECK_EQ(int(ab.status), int(PodemStatus::Aborted));
    CHECK(ab.backtracks >= 1);
  }

  // --- property test across ISCAS85 surrogates ---------------------------
  // Take the LFSR-resistant tail of a short pseudo-random phase and PODEM a
  // sample of it; every emitted cube must be fault-sim confirmed under both
  // X completions.
  for (const std::string& name : {std::string("c432s"), std::string("c499s"),
                                  std::string("c880s"), std::string("c1908s")}) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const FaultSimResult lr = fsim.run(lfsr.blocks(n.input_count(), 256));

    Podem podem(k);
    PodemOptions opt;
    opt.backtrack_limit = 100;  // keeps redundancy proofs cheap in this test
    std::size_t tried = 0, detected = 0;
    for (std::size_t i = 0;
         i < lr.first_detected.size() && detected < 10; ++i) {
      if (lr.first_detected[i] >= 0) continue;
      ++tried;
      const Fault& f = fsim.faults()[i];
      const PodemResult r = podem.generate(f, opt);
      if (r.status != PodemStatus::Detected) continue;
      ++detected;
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, false)));
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, true)));
    }
    CHECK(tried > 0);      // the short LFSR phase leaves a tail
    CHECK(detected > 0);   // and PODEM cracks LFSR-resistant faults
  }

  // --- the search, pinned bit for bit ----------------------------------
  // One digest over every PodemResult of the 512-pattern LFSR tails of
  // c432s, c880s and c1355s at backtrack limits 50 and 0.  The value was
  // recorded with the two-TernarySim implication engine; any engine must
  // reproduce it, since implication never decides what the search does.
  // It must hold through PodemBatch at 1 and 2 threads, with the tail
  // handed over in batches of 1, 15, 16 and 17 faults and whole (partial,
  // full and refilled lanes), and through Podem::generate one fault at a
  // time.  The batch and the single engine must also agree slot for slot,
  // and the same batch over a shuffled order (faults meeting other lane
  // neighbours) must return the same result for every fault.
  {
    const std::string pin("33fe0b6759e316efdf0f4067cf623838");
    const std::size_t chunks[] = {1, 15, 16, 17, 0};  // 0: the whole tail
    std::vector<Hasher> batch_h(2 * std::size(chunks));
    Hasher solo_h;
    for (const std::string& name : {std::string("c432s"), std::string("c880s"),
                                    std::string("c1355s")}) {
      const Netlist n = make_iscas85(name);
      const SimKernel k(n);
      FaultSimulator fsim(k);
      const std::vector<Fault> tail = lfsr_tail(n, fsim, 512);
      CHECK(tail.size() > 2 * PairSim::kLanes);
      PodemBatch batches[] = {PodemBatch(k, 1), PodemBatch(k, 2)};
      Podem solo(k);
      for (const std::uint32_t limit : {50u, 0u}) {
        PodemOptions opt;
        opt.backtrack_limit = limit;
        const auto header = [&](Hasher& h) {
          h.str(name).u32(limit).u64(tail.size());
        };
        std::vector<PodemResult> ref;
        for (std::size_t t = 0; t < 2; ++t)
          for (std::size_t c = 0; c < std::size(chunks); ++c) {
            Hasher& h = batch_h[t * std::size(chunks) + c];
            header(h);
            const std::size_t step = chunks[c] ? chunks[c] : tail.size();
            std::vector<PodemResult> all;
            for (std::size_t b = 0; b < tail.size(); b += step) {
              const std::span<const Fault> part(
                  tail.data() + b, std::min(step, tail.size() - b));
              for (PodemResult& r : batches[t].generate(part, opt))
                all.push_back(std::move(r));
            }
            for (const PodemResult& r : all) hash_result(h, r);
            if (t == 0 && chunks[c] == 0) ref = std::move(all);
          }

        header(solo_h);
        std::size_t differ = 0;
        for (std::size_t i = 0; i < tail.size(); ++i) {
          const PodemResult r = solo.generate(tail[i], opt);
          hash_result(solo_h, r);
          differ += !same_result(r, ref[i]);
        }
        CHECK_EQ(differ, 0u);

        // Reuse contract: a shuffled order returns the same result for every
        // fault.
        std::vector<std::size_t> perm(tail.size());
        for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
        Rng rng(0x9e3779b9u + limit);
        for (std::size_t i = perm.size(); i > 1; --i)
          std::swap(perm[i - 1],
                    perm[rng.next_below(static_cast<std::uint32_t>(i))]);
        std::vector<Fault> shuffled;
        for (const std::size_t i : perm) shuffled.push_back(tail[i]);
        const std::vector<PodemResult> sr = batches[1].generate(shuffled, opt);
        differ = 0;
        for (std::size_t j = 0; j < perm.size(); ++j)
          differ += !same_result(sr[j], ref[perm[j]]);
        CHECK_EQ(differ, 0u);
      }
    }
    const std::string got = batch_h[std::size(chunks) - 1].digest().hex();
    std::printf("podem search digest: %s\n", got.c_str());
    for (std::size_t t = 0; t < 2; ++t)
      for (std::size_t c = 0; c < std::size(chunks); ++c) {
        const std::string d = batch_h[t * std::size(chunks) + c].digest().hex();
        if (d != pin)
          std::printf("  %zu thread(s), batches of %zu: %s\n", t + 1,
                      chunks[c], d.c_str());
        CHECK_EQ(d, pin);
      }
    CHECK_EQ(solo_h.digest().hex(), pin);
  }

  return bist_test::summary();
}
