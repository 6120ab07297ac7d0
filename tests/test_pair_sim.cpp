// PairSim against the reference oracle: after every step of seeded random
// assign / flip / undo sequences, each gate's good lane must equal a plain
// TernarySim and its faulty lane a TernarySim with the same fault forced —
// for stem and branch faults, constant gates, multi-input XOR/XNOR, a gate
// wider than 64 inputs, c17 and the c432s/c880s/c1355s surrogates.  Every
// undo must restore the exact bytes from before the assignment it unwinds.

#include <cstdio>
#include <string>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/pair_sim.hpp"
#include "sim/ternary_sim.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

using namespace bist;

namespace {

std::vector<std::uint8_t> snapshot(const PairSim& ps, const SimKernel& k) {
  std::vector<std::uint8_t> s(k.gate_count());
  for (KIndex g = 0; g < k.gate_count(); ++g) s[g] = ps.pair(g);
  return s;
}

// Gates whose (good, faulty) lanes differ from the two reference machines.
std::size_t lane_mismatches(const PairSim& ps, const TernarySim& good,
                            const TernarySim& faulty, const SimKernel& k) {
  std::size_t bad = 0;
  for (KIndex g = 0; g < k.gate_count(); ++g)
    bad += ps.good(g) != good.value_at(g) || ps.faulty(g) != faulty.value_at(g);
  return bad;
}

// One open decision of the random walk: PI `idx` was assigned `v` (over
// `prev`) at trail position `mark`, when the bytes were `before`.
struct Decision {
  std::size_t idx;
  Ternary prev, v;
  std::size_t mark;
  std::vector<std::uint8_t> before;
};

// Inject `f` (kNoGate site: fault-free) and run `steps` random operations:
// assign an unassigned PI, flip the newest decision PODEM-style (undo, then
// assign the complement), reassign a PI over its value in place, or undo
// the newest decision.  Returns the number of failed comparisons.
std::size_t random_walk(const SimKernel& k, PairSim& ps, const Fault* f,
                        Rng& rng, int steps) {
  TernarySim good(k), faulty(k);
  KIndex site = kNoGate;
  int pin = -1;
  Ternary stuck = Ternary::VX;
  if (f) {
    site = k.index_of(f->gate);
    pin = f->pin;
    stuck = f->stuck ? Ternary::V1 : Ternary::V0;
    if (pin < 0)
      faulty.force(f->gate, stuck);
    else
      faulty.force_pin(f->gate, static_cast<unsigned>(pin), stuck);
  }
  ps.reset(site, pin, stuck);
  std::size_t bad = lane_mismatches(ps, good, faulty, k) != 0;

  const std::size_t n_in = k.inputs().size();
  std::vector<Ternary> value(n_in, Ternary::VX);
  std::vector<Decision> stack;
  const auto assign = [&](std::size_t idx, Ternary v) {
    stack.push_back({idx, value[idx], v, ps.mark(), snapshot(ps, k)});
    value[idx] = v;
    ps.assign(idx, v);
    good.set_input(idx, v);
    faulty.set_input(idx, v);
  };
  const auto undo = [&]() {
    const Decision d = stack.back();
    stack.pop_back();
    ps.undo(d.mark);
    value[d.idx] = d.prev;
    good.set_input(d.idx, d.prev);
    faulty.set_input(d.idx, d.prev);
    bad += snapshot(ps, k) != d.before;
  };

  for (int s = 0; s < steps; ++s) {
    const std::uint32_t op = rng.next_below(8);
    if (op < 4 || stack.empty()) {
      std::size_t idx = rng.next_below(static_cast<std::uint32_t>(n_in));
      for (std::size_t t = 0; t < n_in && value[idx] != Ternary::VX; ++t)
        idx = (idx + 1) % n_in;
      if (value[idx] != Ternary::VX) {  // everything assigned: back off
        if (!stack.empty()) undo();
      } else {
        assign(idx, rng.next_bool() ? Ternary::V1 : Ternary::V0);
      }
    } else if (op < 6) {
      const Decision d = stack.back();
      undo();
      assign(d.idx, t_not(d.v));
    } else if (op == 6) {
      const std::size_t idx = stack[rng.next_below(
          static_cast<std::uint32_t>(stack.size()))].idx;
      assign(idx, t_not(value[idx]));
    } else {
      undo();
    }
    bad += lane_mismatches(ps, good, faulty, k) != 0;
  }
  while (!stack.empty()) {
    undo();
    bad += lane_mismatches(ps, good, faulty, k) != 0;
  }
  return bad;
}

// Every fault of `n` (all of them when `sample` is 0, else a seeded
// sample), plus the fault-free machine pair, through random walks.
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
  std::size_t stems = 0, branches = 0;
  std::size_t bad = random_walk(k, ps, nullptr, rng, steps);
  for (const Fault& f : faults) {
    (f.is_output_fault() ? stems : branches) += 1;
    bad += random_walk(k, ps, &f, rng, steps);
  }
  std::printf("%s: %zu stem + %zu branch faults, %d steps each, "
              "%zu mismatches\n",
              n.name().c_str(), stems, branches, steps, bad);
  CHECK(stems > 0);
  CHECK(branches > 0);
  CHECK_EQ(bad, 0u);
}

// Constant gates, multi-input XOR/XNOR, every other gate type, and an
// 80-input AND (wider than the old fixed 64-entry fanin buffer).
Netlist hand_circuit() {
  Netlist n("hand");
  std::vector<GateId> in;
  for (int i = 0; i < 80; ++i)
    in.push_back(n.add_input("i" + std::to_string(i)));
  const GateId c0 = n.add_gate(GateType::Const0, {}, "c0");
  const GateId c1 = n.add_gate(GateType::Const1, {}, "c1");
  const GateId x3 = n.add_gate(GateType::Xor, {in[0], in[1], in[2]}, "x3");
  const GateId xn4 = n.add_gate(GateType::Xnor, {in[3], in[4], x3, c1}, "xn4");
  const GateId a = n.add_gate(GateType::And, {in[5], c1, xn4}, "a");
  const GateId na = n.add_gate(GateType::Nand, {in[6], x3, in[7]}, "na");
  const GateId o = n.add_gate(GateType::Or, {c0, in[8], na}, "o");
  const GateId no = n.add_gate(GateType::Nor, {a, in[9]}, "no");
  const GateId b = n.add_gate(GateType::Buf, {no}, "b");
  const GateId nt = n.add_gate(GateType::Not, {o}, "nt");
  const GateId xo = n.add_gate(GateType::Xor, {b, nt, in[10], x3, c0}, "xo");
  const GateId wide = n.add_gate(GateType::And, in, "wide");
  const GateId wx = n.add_gate(GateType::Xnor, {wide, xo}, "wx");
  const GateId k0 = n.add_gate(GateType::Or, {c0, c0}, "k0");
  const GateId k1 = n.add_gate(GateType::Nand, {k0, in[11]}, "k1");
  for (GateId g : {xn4, a, o, b, xo, wx, k1}) n.add_output(g);
  n.freeze();
  return n;
}

}  // namespace

int main() {
  // --- the wide gate in both engines, known values ------------------------
  {
    const Netlist n = hand_circuit();
    const SimKernel k(n);
    const KIndex wide = k.index_of(n.find("wide"));
    TernarySim ref(k);
    PairSim ps(k);
    for (std::size_t i = 0; i < 80; ++i) {
      ref.set_input(i, Ternary::V1);
      ps.assign(i, Ternary::V1);
    }
    CHECK_EQ(int(ref.value_at(wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.good(wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(wide)), int(Ternary::V1));
    ref.set_input(79, Ternary::V0);
    ps.assign(79, Ternary::V0);
    CHECK_EQ(int(ref.value_at(wide)), int(Ternary::V0));
    CHECK_EQ(int(ps.good(wide)), int(Ternary::V0));

    // Branch fault on the last pin of the wide gate: only the faulty lane of
    // that gate sees it.
    ps.reset(wide, 79, Ternary::V0);
    for (std::size_t i = 0; i < 80; ++i) ps.assign(i, Ternary::V1);
    CHECK_EQ(int(ps.good(wide)), int(Ternary::V1));
    CHECK_EQ(int(ps.faulty(wide)), int(Ternary::V0));
    CHECK(PairSim::is_diff(ps.pair(wide)));
    CHECK_EQ(int(ps.faulty(k.inputs()[79])), int(Ternary::V1));

    CHECK_THROWS(ps.reset(wide, 80, Ternary::V0));
    ps.reset(kNoGate, -1, Ternary::VX);  // usable again after the throw
    CHECK_EQ(int(ps.good(wide)), int(Ternary::VX));
    CHECK_EQ(int(ps.faulty(wide)), int(Ternary::VX));
  }

  // --- lane-for-lane against the oracle -----------------------------------
  check_circuit(hand_circuit(), 0, 60, 0x1001);
  check_circuit(make_c17(), 0, 40, 0x1002);
  check_circuit(make_iscas85("c432s"), 40, 80, 0x1003);
  check_circuit(make_iscas85("c880s"), 40, 80, 0x1004);
  check_circuit(make_iscas85("c1355s"), 40, 80, 0x1005);

  return bist_test::summary();
}
