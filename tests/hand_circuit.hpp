#pragma once
// A small hand-built circuit for the implication and scan tests: constant
// gates, multi-input XOR/XNOR, every other gate type, and an 80-input AND
// (wider than a 64-entry fanin buffer).

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

inline bist::Netlist hand_circuit() {
  using bist::GateId;
  using bist::GateType;
  bist::Netlist n("hand");
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
