// PairSim against the reference oracle: every lane carries its own seeded
// random walk (assign, flip, unassign back to X, reload with the next fault)
// and, after every pass, each gate's good machine in each lane must equal a
// plain TernarySim with that lane's assignment, and its faulty machine a
// TernarySim with the lane's fault forced.  The lanes start with different
// faults — no fault, the same fault in two lanes, stem and branch faults —
// and are reloaded mid-walk while the others keep walking.  The 80-input
// wide gate is also driven in both words of the lane layout side by side
// (lanes 0, 5, 15, 16, 17 and 31), so a word/nibble mix-up fails a named
// check.
// Covers constant gates, multi-input XOR/XNOR, a gate wider than 64 inputs,
// c17 and the c432s/c880s/c1355s surrogates.  The lane-mask predicates
// x_lanes and diff_lanes are checked against has_x and is_diff on random
// words, one word and both words of a gate at once.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "hand_circuit.hpp"
#include "sim/kernel.hpp"
#include "sim/pair_sim.hpp"
#include "sim/ternary_sim.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

using namespace bist;

namespace {

constexpr unsigned kLanes = PairSim::kLanes;

// One lane's walk and its two reference machines.
struct LaneWalk {
  explicit LaneWalk(const SimKernel& k)
      : good(k), faulty(k), value(k.inputs().size(), Ternary::VX) {}
  TernarySim good, faulty;
  std::vector<Ternary> value;  // the lane's PI assignment
};

// Load `f` (nullptr: fault-free) into lane `l` of both engines.
void load(const SimKernel& k, PairSim& ps, LaneWalk& w, unsigned l,
          const Fault* f) {
  w.good.reset();
  w.faulty.reset();
  std::fill(w.value.begin(), w.value.end(), Ternary::VX);
  if (!f) {
    ps.load(l, kNoGate, -1, Ternary::VX);
    return;
  }
  const Ternary stuck = f->stuck ? Ternary::V1 : Ternary::V0;
  if (f->pin < 0)
    w.faulty.force(f->gate, stuck);
  else
    w.faulty.force_pin(f->gate, static_cast<unsigned>(f->pin), stuck);
  ps.load(l, k.index_of(f->gate), f->pin, stuck);
}

void set_input(PairSim& ps, LaneWalk& w, unsigned l, std::size_t idx,
               Ternary v) {
  w.value[idx] = v;
  ps.set_input(l, idx, v);
  w.good.set_input(idx, v);
  w.faulty.set_input(idx, v);
}

// Lanes whose (good, faulty) machines differ from their references on some
// gate.
std::size_t lane_mismatches(const PairSim& ps,
                            const std::vector<std::unique_ptr<LaneWalk>>& w,
                            const SimKernel& k) {
  std::size_t bad = 0;
  for (unsigned l = 0; l < kLanes; ++l) {
    bool differ = false;
    for (KIndex g = 0; g < k.gate_count() && !differ; ++g)
      differ = ps.good(l, g) != w[l]->good.value_at(g) ||
               ps.faulty(l, g) != w[l]->faulty.value_at(g);
    bad += differ;
  }
  return bad;
}

// A random PI of lane `w` that is (assigned == true) or is not assigned, or
// n_in if there is none.
std::size_t pick_pi(const LaneWalk& w, Rng& rng, bool assigned) {
  const std::size_t n = w.value.size();
  std::size_t idx = rng.next_below(static_cast<std::uint32_t>(n));
  for (std::size_t t = 0; t < n; ++t, idx = (idx + 1) % n)
    if ((w.value[idx] != Ternary::VX) == assigned) return idx;
  return n;
}

// Every fault of `n` (all of them when `sample` is 0, else a seeded sample)
// through independent lane walks of at least `steps` passes, until every
// fault has been loaded.  Lane 0 starts fault-free and lanes 1 and 2 start
// with the same fault; a reload takes the next fault of the list, or now and
// then no fault.
void check_circuit(const Netlist& n, std::size_t sample, int steps,
                   std::uint64_t seed) {
  const SimKernel k(n);
  PairSim ps(k);
  Rng rng(seed);
  const std::vector<Fault> all = enumerate_faults(n);
  std::vector<Fault> faults = all;
  if (sample) {
    faults.clear();
    for (std::size_t i = 0; i < sample; ++i)
      faults.push_back(
          all[rng.next_below(static_cast<std::uint32_t>(all.size()))]);
  }
  std::size_t next = 0, stems = 0, branches = 0, reloads = 0;
  const auto take = [&]() -> const Fault* {
    if (next == faults.size()) return nullptr;
    const Fault* f = &faults[next++];
    (f->is_output_fault() ? stems : branches) += 1;
    return f;
  };
  const auto next_fault = [&]() {
    return rng.next_below(8) != 0 ? take() : nullptr;
  };

  std::vector<std::unique_ptr<LaneWalk>> w;
  const Fault* twice = nullptr;
  for (unsigned l = 0; l < kLanes; ++l) {
    w.push_back(std::make_unique<LaneWalk>(k));
    if (l == 1) twice = take();
    const Fault* f = l == 0 ? nullptr : l <= 2 ? twice : next_fault();
    load(k, ps, *w[l], l, f);
  }
  ps.evaluate();
  std::size_t bad = lane_mismatches(ps, w, k) != 0;

  for (int s = 0; s < steps || next < faults.size(); ++s) {
    for (unsigned l = 0; l < kLanes; ++l) {
      LaneWalk& lw = *w[l];
      const std::uint32_t op = rng.next_below(10);
      const std::size_t none = lw.value.size();
      if (op < 4) {  // decide an unassigned PI (or back off when full)
        const std::size_t idx = pick_pi(lw, rng, false);
        if (idx != none)
          set_input(ps, lw, l, idx,
                    rng.next_bool() ? Ternary::V1 : Ternary::V0);
        else
          set_input(ps, lw, l, pick_pi(lw, rng, true), Ternary::VX);
      } else if (op < 6) {  // flip a decision
        const std::size_t idx = pick_pi(lw, rng, true);
        if (idx != none) set_input(ps, lw, l, idx, t_not(lw.value[idx]));
      } else if (op < 8) {  // unassign back to X
        const std::size_t idx = pick_pi(lw, rng, true);
        if (idx != none) set_input(ps, lw, l, idx, Ternary::VX);
      } else if (op == 8) {  // reload mid-walk
        load(k, ps, lw, l, next_fault());
        ++reloads;
      }  // op 9: this lane idles while the others move
    }
    ps.evaluate();
    bad += lane_mismatches(ps, w, k);
  }
  std::printf("%s: %zu stem + %zu branch faults over %u lanes, %zu reloads, "
              "%zu lane mismatches\n",
              n.name().c_str(), stems, branches, kLanes, reloads, bad);
  CHECK(stems > 0);
  CHECK(branches > 0);
  CHECK(reloads > 0);
  CHECK_EQ(bad, 0u);
}

}  // namespace

int main() {
  // --- the wide gate, known values, lanes side by side -------------------
  {
    const Netlist n = hand_circuit();
    const SimKernel k(n);
    const KIndex wide = k.index_of(n.find("wide"));
    PairSim ps(k);
    // Lane 0 fault-free, lane 5 with the last pin of the wide gate stuck at
    // 0, lane 15 with the wide gate's output stuck at 1; in the second word,
    // lane 16 (lane 0's nibble) with the output stuck at 0, lane 31 (lane
    // 15's nibble) with the first pin stuck at 0 and lane 17 fault-free.
    ps.load(5, wide, 79, Ternary::V0);
    ps.load(15, wide, -1, Ternary::V1);
    ps.load(16, wide, -1, Ternary::V0);
    ps.load(31, wide, 0, Ternary::V0);
    for (unsigned l : {0u, 5u, 15u, 16u, 17u, 31u})
      for (std::size_t i = 0; i < 80; ++i) ps.set_input(l, i, Ternary::V1);
    ps.evaluate();
    // A fault or an assignment in one word never shows at the same nibble
    // of the other: lane 16 is lane 0's nibble in word 1.
    const bool lane16_fault_stays_out_of_lane0 =
        ps.faulty(0, wide) == Ternary::V1 && !PairSim::is_diff(ps.pair(0, wide));
    CHECK(lane16_fault_stays_out_of_lane0);
    const bool lane16_fault_lands_in_lane16 =
        ps.good(16, wide) == Ternary::V1 && ps.faulty(16, wide) == Ternary::V0;
    CHECK(lane16_fault_lands_in_lane16);
    const bool lane31_pin_fault_lands_in_lane31 =
        ps.good(31, wide) == Ternary::V1 && ps.faulty(31, wide) == Ternary::V0 &&
        ps.faulty(31, k.inputs()[0]) == Ternary::V1;
    CHECK(lane31_pin_fault_lands_in_lane31);
    const bool lane17_assignment_stays_out_of_lane1 =
        ps.good(1, wide) == Ternary::VX && ps.good(17, wide) == Ternary::V1;
    CHECK(lane17_assignment_stays_out_of_lane1);
    CHECK_EQ(int(ps.good(0, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(0, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.good(5, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(5, wide)), int(Ternary::V0));
    CHECK(PairSim::is_diff(ps.pair(5, wide)));
    CHECK_EQ(int(ps.faulty(5, k.inputs()[79])), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(15, wide)), int(Ternary::V1));
    CHECK(!PairSim::is_diff(ps.pair(15, wide)));
    // Lanes never assigned stay X.
    CHECK_EQ(int(ps.good(1, wide)), int(Ternary::VX));

    // Unassigning one input back to X: every lane's wide gate returns to X,
    // except the stem faults' faulty machines and the forced pins.
    for (unsigned l : {0u, 5u, 15u, 16u, 31u}) ps.set_input(l, 79, Ternary::VX);
    ps.evaluate();
    CHECK_EQ(int(ps.good(0, wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.faulty(0, wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.faulty(5, wide)), int(Ternary::V0));  // pin still forced
    CHECK_EQ(int(ps.good(5, wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.faulty(15, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.good(16, wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.faulty(16, wide)), int(Ternary::V0));
    CHECK_EQ(int(ps.good(31, wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.faulty(31, wide)), int(Ternary::V0));  // pin 0 forced
    ps.set_input(0, 79, Ternary::V0);
    ps.evaluate();
    CHECK_EQ(int(ps.good(0, wide)), int(Ternary::V0));

    // A bad pin throws and leaves that lane fault-free with its PIs X; the
    // other lanes keep their faults and assignments.
    CHECK_THROWS(ps.load(5, wide, 80, Ternary::V0));
    for (std::size_t i = 0; i < 80; ++i) ps.set_input(5, i, Ternary::V1);
    ps.evaluate();
    CHECK_EQ(int(ps.good(5, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(5, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(15, wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.good(15, wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.good(0, wide)), int(Ternary::V0));
  }

  // --- lane masks against the per-nibble predicates ----------------------
  // Gates' value words of valid nibbles (each machine 0, 1 or X): the lane
  // bit of x_lanes and diff_lanes must be has_x and is_diff of the lane's
  // nibble, and no other bit may be set — over both words at once and over
  // each word alone.
  {
    Rng rng(0x1000);
    std::size_t bad = 0;
    for (int t = 0; t < 4096; ++t) {
      LaneWords v{};
      for (unsigned l = 0; l < kLanes; ++l) {
        const std::uint64_t good = rng.next_below(3), faulty = rng.next_below(3);
        v[l / PairSim::kWordLanes] |= (good | faulty << 2) << PairSim::shift(l);
      }
      const LaneWords x = PairSim::x_lanes(v), d = PairSim::diff_lanes(v);
      for (unsigned w = 0; w < 2; ++w) {
        bad += ((x[w] | d[w]) & ~PairSim::kLaneBits) != 0;
        bad += PairSim::x_lanes(v[w]) != x[w];
        bad += PairSim::diff_lanes(v[w]) != d[w];
      }
      for (unsigned l = 0; l < kLanes; ++l) {
        const std::uint8_t p = static_cast<std::uint8_t>(
            (v[l / PairSim::kWordLanes] >> PairSim::shift(l)) & 0xF);
        bad += PairSim::lane_in(x, l) != PairSim::has_x(p);
        bad += PairSim::lane_in(d, l) != PairSim::is_diff(p);
      }
    }
    CHECK_EQ(bad, 0u);
  }

  // --- lane-for-lane against the oracle -----------------------------------
  check_circuit(hand_circuit(), 0, 60, 0x1001);
  check_circuit(make_c17(), 0, 40, 0x1002);
  check_circuit(make_iscas85("c432s"), 40, 80, 0x1003);
  check_circuit(make_iscas85("c880s"), 40, 80, 0x1004);
  check_circuit(make_iscas85("c1355s"), 40, 80, 0x1005);

  return bist_test::summary();
}
