// PODEM golden tests on C17 (every collapsed fault testable, sensitization
// conditions of a hand-analyzed fault, redundancy recognition by the
// implication pre-pass and by search, abort reporting) plus the property test: every cube PODEM emits is confirmed by
// the PPSFP fault simulator to detect its target fault — under both all-0
// and all-1 completion of the don't-care bits.  A checked-in digest pins the
// search bit for bit (status, cube, backtracks, decisions of every LFSR-tail
// fault on three surrogates), so a pre-pass or implication-engine change
// that alters a single verdict or decision fails here — through the lane-parallel batch at 1 and 2
// threads and every lane occupancy, and through one fault at a time — and a
// batch reused over a shuffled fault order must reproduce the in-order
// per-fault results.  A resumable session decided in steps, its boundaries
// cut mid-pool, must leave every slot as generate() does, with and without
// a deadline firing in a later decide().  The lane-mask scan (PodemScan) is
// checked lane by lane against the per-lane scalar scans it replaced, kept
// here as the reference, on seeded random PairSim states.

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
#include "fault/redundancy.hpp"
#include "hand_circuit.hpp"
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

// --- the per-lane scalar scans: the reference for PodemScan -------------
// What a one-search-at-a-time PODEM checks on one lane, reading that lane's
// nibbles only: the engine's scans before they went bit-parallel.

struct RefFault {
  KIndex site, line;
  bool branch;
  Ternary stuck;
  std::vector<KIndex> cone;  // site and its transitive fanout, ascending
};

RefFault ref_fault(const SimKernel& k, const Fault& f) {
  RefFault r;
  r.site = k.index_of(f.gate);
  r.branch = !f.is_output_fault();
  r.line = r.branch ? k.fanins(r.site)[f.pin] : r.site;
  r.stuck = f.stuck ? Ternary::V1 : Ternary::V0;
  std::vector<char> in(k.gate_count(), 0);
  r.cone.push_back(r.site);
  in[r.site] = 1;
  for (std::size_t c = 0; c < r.cone.size(); ++c)
    for (KIndex fo : k.fanouts(r.cone[c]))
      if (!in[fo]) {
        in[fo] = 1;
        r.cone.push_back(fo);
      }
  std::sort(r.cone.begin(), r.cone.end());
  return r;
}

std::vector<std::uint32_t> ref_po_dist(const SimKernel& k) {
  std::vector<std::uint32_t> d(k.gate_count(), ~0u);
  for (KIndex u = static_cast<KIndex>(k.gate_count()); u-- > 0;) {
    if (k.is_output(u)) { d[u] = 0; continue; }
    for (KIndex f : k.fanouts(u))
      if (d[f] != ~0u) d[u] = std::min(d[u], d[f] + 1);
  }
  return d;
}

bool ref_detected(const SimKernel& k, const PairSim& ps, unsigned l) {
  for (KIndex o : k.outputs())
    if (PairSim::is_diff(ps.pair(l, o))) return true;
  return false;
}

// The line can still take the opposite of its stuck value, and a difference
// or the unresolved site reaches an output along gates X in some machine.
bool ref_live(const SimKernel& k, const PairSim& ps, unsigned l,
              const RefFault& f) {
  if (ps.good(l, f.line) == f.stuck) return false;
  std::vector<char> reach(k.gate_count(), 0);
  for (auto it = f.cone.rbegin(); it != f.cone.rend(); ++it) {
    const KIndex u = *it;
    bool r = false;
    if (PairSim::has_x(ps.pair(l, u))) {
      if (k.is_output(u)) {
        r = true;
      } else {
        for (KIndex fo : k.fanouts(u))  // fanouts of cone gates stay in cone
          if (reach[fo]) { r = true; break; }
      }
    }
    reach[u] = r;
  }
  if (reach[f.site]) return true;
  for (KIndex u : f.cone) {
    if (!PairSim::is_diff(ps.pair(l, u))) continue;
    if (k.is_output(u)) return true;
    for (KIndex fo : k.fanouts(u))
      if (reach[fo]) return true;
  }
  return false;
}

// Once the line holds !stuck: the first D-frontier gate in ascending order
// with the lowest po_dist.  *ties counts the frontier gates at that distance.
KIndex ref_frontier(const SimKernel& k, const PairSim& ps, unsigned l,
                    const RefFault& f, const std::vector<std::uint32_t>& dist,
                    std::size_t* ties) {
  *ties = 0;
  if (ps.good(l, f.line) != t_not(f.stuck)) return kNoGate;
  KIndex best = kNoGate;
  for (const KIndex u : f.cone) {
    if (!PairSim::has_x(ps.pair(l, u))) continue;
    bool frontier = f.branch && u == f.site;
    if (!frontier) {
      for (KIndex w : k.fanins(u))
        if (PairSim::is_diff(ps.pair(l, w))) { frontier = true; break; }
    }
    if (!frontier) continue;
    if (best == kNoGate || dist[u] < dist[best]) {
      best = u;
      *ties = 1;
    } else if (dist[u] == dist[best]) {
      ++*ties;
    }
  }
  return best;
}

struct ScanTally {
  std::size_t lanes = 0, idle = 0, detected = 0, live = 0, dead = 0,
              picks = 0, branch_site_picks = 0, tied_picks = 0, bad = 0;
};

// Seeded random states: every round each lane either keeps its fault or is
// refilled — with a random fault (half of them on a multi-fanout line, stem
// or branch) or with none — and gets a fresh partial PI assignment at a
// random density.  After each pass, every lane of the scan must equal the
// reference.
void check_scan(const Netlist& n, int rounds, std::uint64_t seed,
                ScanTally& t) {
  const SimKernel k(n);
  PairSim ps(k);
  PodemScan scan(k);
  Rng rng(seed);
  const std::vector<Fault> all = enumerate_faults(n);
  std::vector<Fault> multi;  // the faulted line has several fanouts
  for (const Fault& f : all) {
    const KIndex site = k.index_of(f.gate);
    const KIndex line = f.is_output_fault() ? site : k.fanins(site)[f.pin];
    if (k.fanouts(line).size() > 1) multi.push_back(f);
  }
  const std::vector<std::uint32_t> dist = ref_po_dist(k);
  std::vector<RefFault> ref(PairSim::kLanes);
  std::vector<bool> busy(PairSim::kLanes, false);
  const std::size_t before = t.bad;
  for (int round = 0; round < rounds; ++round) {
    for (unsigned l = 0; l < PairSim::kLanes; ++l) {
      if (round > 0 && rng.next_below(2)) continue;  // keeps its fault
      busy[l] = rng.next_below(8) != 0;
      if (!busy[l]) {
        ps.load(l, kNoGate, -1, Ternary::VX);
        scan.load(l, kNoGate, -1, Ternary::VX);
        continue;
      }
      const std::vector<Fault>& from =
          !multi.empty() && rng.next_bool() ? multi : all;
      const Fault& f =
          from[rng.next_below(static_cast<std::uint32_t>(from.size()))];
      ref[l] = ref_fault(k, f);
      ps.load(l, ref[l].site, f.pin, ref[l].stuck);
      scan.load(l, ref[l].site, f.pin, ref[l].stuck);
    }
    for (unsigned l = 0; l < PairSim::kLanes; ++l) {
      const std::uint32_t density = 1 + rng.next_below(9);  // tenths assigned
      for (std::size_t i = 0; i < k.inputs().size(); ++i)
        ps.set_input(l, i,
                     rng.next_below(10) >= density ? Ternary::VX
                     : rng.next_bool()             ? Ternary::V1
                                                   : Ternary::V0);
    }
    ps.evaluate();
    scan.scan(ps);
    for (unsigned l = 0; l < PairSim::kLanes; ++l) {
      ++t.lanes;
      // The lane's cone marks, exactly: a refill or an idle lane keeps none
      // of the previous fault's.
      std::vector<char> cone(k.gate_count(), 0);
      if (busy[l])
        for (KIndex u : ref[l].cone) cone[u] = 1;
      for (KIndex u = 0; u < k.gate_count(); ++u)
        t.bad += scan.in_cone(l, u) != (cone[u] != 0);
      if (!busy[l]) {
        ++t.idle;
        t.bad += scan.detected(l) || scan.live(l) ||
                 scan.frontier(l) != kNoGate;
        continue;
      }
      const bool det = ref_detected(k, ps, l);
      const bool live = ref_live(k, ps, l, ref[l]);
      std::size_t ties = 0;
      const KIndex pick = ref_frontier(k, ps, l, ref[l], dist, &ties);
      t.detected += det;
      t.live += !det && live;
      t.dead += !det && !live;
      t.picks += pick != kNoGate;
      t.branch_site_picks += ref[l].branch && pick == ref[l].site;
      t.tied_picks += ties > 1;
      t.bad += scan.detected(l) != det || scan.live(l) != live ||
               scan.frontier(l) != pick || scan.line(l) != ref[l].line ||
               scan.stuck(l) != ref[l].stuck;
    }
  }
  std::printf("scan %s: %zu lane mismatches\n", n.name().c_str(),
              t.bad - before);
}

}  // namespace

int main() {
  // --- the lane scan against the per-lane reference -----------------------
  {
    ScanTally t;
    check_scan(hand_circuit(), 200, 0x5ca1, t);
    check_scan(make_c17(), 200, 0x5ca2, t);
    check_scan(make_iscas85("c432s"), 150, 0x5ca3, t);
    check_scan(make_iscas85("c880s"), 150, 0x5ca4, t);
    check_scan(make_iscas85("c1355s"), 150, 0x5ca5, t);
    std::printf("scan: %zu lanes (%zu idle), %zu detected, %zu live, %zu "
                "dead, %zu frontier picks (%zu at a branch site, %zu tied)\n",
                t.lanes, t.idle, t.detected, t.live, t.dead, t.picks,
                t.branch_site_picks, t.tied_picks);
    CHECK_EQ(t.bad, 0u);
    CHECK(t.idle > 0);
    CHECK(t.detected > 0);
    CHECK(t.live > 0);
    CHECK(t.dead > 0);
    CHECK(t.branch_site_picks > 0);
    CHECK(t.tied_picks > 0);

    // A bad pin throws and leaves the lane without a fault or cone marks.
    const Netlist c17 = make_c17();
    const SimKernel k(c17);
    PairSim ps(k);
    PodemScan scan(k);
    const KIndex g10 = k.index_of(c17.find("10"));  // 2-input NAND
    scan.load(3, g10, 0, Ternary::V0);
    CHECK(scan.in_cone(3, g10));
    CHECK_THROWS(scan.load(3, g10, 2, Ternary::V0));
    std::size_t marks = 0;
    for (KIndex u = 0; u < k.gate_count(); ++u) marks += scan.in_cone(3, u);
    CHECK_EQ(marks, 0u);
    ps.evaluate();
    scan.scan(ps);
    CHECK(!scan.detected(3) && !scan.live(3) && scan.frontier(3) == kNoGate);
  }

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
    if (r.status == PodemStatus::Detected &&
        r.cube.size() == c17.input_count()) {
      const std::uint32_t pi1 = c17.input_index(c17.find("1"));
      const std::uint32_t pi3 = c17.input_index(c17.find("3"));
      CHECK_EQ(int(r.cube[pi1]), int(Ternary::V1));
      CHECK_EQ(int(r.cube[pi3]), int(Ternary::V1));
      // The cube leaves at least one of the five inputs unconstrained: PODEM
      // assigns only what the objective chain needed.
      std::size_t x_bits = 0;
      for (Ternary t : r.cube) x_bits += t == Ternary::VX;
      CHECK(x_bits >= 1);
    }

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
    if (det.status == PodemStatus::Detected &&
        det.cube.size() == n.input_count())
      CHECK_EQ(int(det.cube[0]), int(Ternary::V0));  // needs a = 0

    // o s-a-1 needs o = 0, hence a = 0 and nb = 0, and nb = NOT a: the
    // implication pre-pass proves it before any search, whatever the budget.
    PodemOptions strict;
    strict.backtrack_limit = 0;
    const PodemResult pr = podem.generate({o, -1, 1}, strict);
    CHECK_EQ(int(pr.status), int(PodemStatus::Redundant));
    CHECK_EQ(pr.backtracks, 0u);
    CHECK_EQ(pr.decisions, 0u);
  }

  // x = AND(XOR(a, b), XNOR(a, b)) is constant 0, but x = 1 implies only
  // that both parities are 1, which direct implication cannot refute: the
  // pre-pass leaves x s-a-0 to the search.  Proving it by search takes at
  // least one backtrack, so a zero backtrack budget must abort instead of
  // claiming redundancy.
  {
    Netlist n("parity_and");
    const GateId a = n.add_input("a");
    const GateId b = n.add_input("b");
    const GateId p = n.add_gate(GateType::Xor, {a, b}, "p");
    const GateId q = n.add_gate(GateType::Xnor, {a, b}, "q");
    const GateId x = n.add_gate(GateType::And, {p, q}, "x");
    n.add_output(x);
    n.freeze();
    const SimKernel k(n);
    const Fault xsa0{x, -1, 0};
    RedundancyCheck check(k);
    CHECK(!check.untestable(xsa0));
    Podem podem(k);
    const PodemResult full = podem.generate(xsa0);
    CHECK_EQ(int(full.status), int(PodemStatus::Redundant));
    CHECK(full.backtracks >= 1);
    PodemOptions strict;
    strict.backtrack_limit = 0;
    const PodemResult ab = podem.generate(xsa0, strict);
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
  // recorded with the implication pre-pass of fault/redundancy.hpp in front
  // of the lane-parallel search; any change to the pre-pass's rules or to a
  // search decision moves it.
  // It must hold through PodemBatch at 1 and 2 threads, with the tail
  // handed over in batches of 1, 31, 32 and 33 faults and whole (partial,
  // full and refilled lanes), and through Podem::generate one fault at a
  // time.  The batch and the single engine must also agree slot for slot,
  // and the same batch over a shuffled order (faults meeting other lane
  // neighbours) must return the same result for every fault.
  {
    const std::string pin("79aa6fe6149676fa7aa1e26c38cc59a8");
    const std::size_t chunks[] = {1, 31, 32, 33, 0};  // 0: the whole tail
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

  // --- resumable sessions -------------------------------------------------
  // One session decided in steps, its boundaries cut mid-pool so that lanes
  // run ahead of a boundary and carry their searches into the next decide(),
  // must leave every slot exactly as generate() does, at 1 and 2 threads.
  // Under after_checks budgets the single engine takes the same steps and
  // polls whatever the boundaries, so at 1 thread a stop leaves exactly
  // generate()'s slots under the same budget; at both thread counts every
  // slot before the last boundary that finished is identical to the
  // undeadlined verdict and every other slot identical or Cancelled.
  {
    std::size_t ahead = 0, later_stops = 0, bad = 0;
    for (const std::string& name : {std::string("c432s"), std::string("c880s"),
                                    std::string("c1355s")}) {
      const Netlist n = make_iscas85(name);
      const SimKernel k(n);
      FaultSimulator fsim(k);
      const std::vector<Fault> tail = lfsr_tail(n, fsim, 512);
      const std::size_t size = tail.size();
      const std::size_t cuts[] = {1,           size / 5,     size / 5,
                                  size / 5 + 1, size / 2,    size - 3,
                                  size};
      PodemOptions opt;
      opt.backtrack_limit = 50;
      PodemBatch solo_batch(k, 1), duo_batch(k, 2);
      const std::vector<PodemResult> ref = solo_batch.generate(tail, opt);
      for (PodemBatch* b : {&solo_batch, &duo_batch}) {
        // Undeadlined, with a deadline that never fires so that a slot not
        // reached yet reads Cancelled: after each boundary, some slots past
        // it were already decided by lanes that ran ahead.
        const Deadline never;
        b->start(tail, opt, &never);
        std::span<PodemResult> got;
        for (const std::size_t cut : cuts) {
          got = b->decide(cut);
          for (std::size_t i = 0; i < size; ++i) {
            const bool decided = got[i].status != PodemStatus::Cancelled;
            bad += i < cut && !decided;
            ahead += i >= cut && decided && got[i].decisions > 0;
          }
        }
        for (std::size_t i = 0; i < size; ++i) bad += !same_result(got[i], ref[i]);

        for (const std::uint64_t polls : {8u, 32u, 64u, 96u, 128u, 192u, 256u}) {
          Deadline d = Deadline::after_checks(polls);
          b->start(tail, opt, &d);
          std::size_t finished = 0;  // the last boundary decided in full
          for (const std::size_t cut : cuts) {
            got = b->decide(cut);
            if (std::none_of(got.begin(), got.begin() + cut,
                             [](const PodemResult& r) {
                               return r.status == PodemStatus::Cancelled;
                             }))
              finished = cut;
          }
          later_stops += finished > 0 && finished < size;
          for (std::size_t i = 0; i < size; ++i)
            bad += !same_result(got[i], ref[i]) &&
                   (i < finished || got[i].status != PodemStatus::Cancelled);
          if (b == &solo_batch) {
            // got views the batch's slots, which the next session reuses.
            const std::vector<PodemResult> cut_run(got.begin(), got.end());
            Deadline same = Deadline::after_checks(polls);
            const std::vector<PodemResult> whole =
                solo_batch.generate(tail, opt, &same);
            for (std::size_t i = 0; i < size; ++i)
              bad += !same_result(cut_run[i], whole[i]);
          }
        }
      }
    }
    std::printf("podem sessions: %zu slots decided ahead of a boundary, %zu "
                "stops after a finished boundary, %zu mismatches\n",
                ahead, later_stops, bad);
    CHECK(ahead > 0);
    CHECK(later_stops > 0);
    CHECK_EQ(bad, 0u);
  }

  return bist_test::summary();
}
