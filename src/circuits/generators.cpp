#include "circuits/generators.hpp"

#include <algorithm>
#include <stdexcept>

namespace bist {

FullAdderOut append_full_adder(Netlist& n, GateId a, GateId b, GateId cin) {
  const GateId axb = n.add_gate(GateType::Xor, {a, b});
  const GateId sum = n.add_gate(GateType::Xor, {axb, cin});
  const GateId ab = n.add_gate(GateType::And, {a, b});
  const GateId axbc = n.add_gate(GateType::And, {axb, cin});
  const GateId carry = n.add_gate(GateType::Or, {ab, axbc});
  return {sum, carry};
}

GateId append_xor_tree(Netlist& n, std::vector<GateId> leaves) {
  if (leaves.empty()) throw std::invalid_argument("append_xor_tree: no leaves");
  while (leaves.size() > 1) {
    std::vector<GateId> next;
    next.reserve((leaves.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2)
      next.push_back(n.add_gate(GateType::Xor, {leaves[i], leaves[i + 1]}));
    if (leaves.size() % 2) next.push_back(leaves.back());
    leaves = std::move(next);
  }
  return leaves[0];
}

GateId append_code_detector(Netlist& n, std::span<const GateId> nets,
                            std::uint64_t code) {
  if (nets.empty()) throw std::invalid_argument("code detector: no nets");
  std::vector<GateId> lits;
  lits.reserve(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const bool want1 = (code >> (i % 64)) & 1;
    lits.push_back(want1 ? nets[i] : n.add_gate(GateType::Not, {nets[i]}));
  }
  // Balanced AND tree.
  while (lits.size() > 1) {
    std::vector<GateId> next;
    next.reserve((lits.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < lits.size(); i += 2)
      next.push_back(n.add_gate(GateType::And, {lits[i], lits[i + 1]}));
    if (lits.size() % 2) next.push_back(lits.back());
    lits = std::move(next);
  }
  return lits[0];
}

std::vector<GateId> append_random_cloud(Netlist& n, Rng& rng,
                                        std::span<const GateId> sources,
                                        const CloudOptions& opt) {
  if (sources.empty()) throw std::invalid_argument("random cloud: no sources");
  // ISCAS-like mix: NAND-heavy with inverters and some parity logic.
  struct Mix { GateType t; unsigned weight; unsigned min_in, max_in; };
  static constexpr Mix kMix[] = {
      {GateType::Nand, 30, 2, 4}, {GateType::Nor, 14, 2, 3},
      {GateType::And, 12, 2, 4},  {GateType::Or, 10, 2, 3},
      {GateType::Xor, 9, 2, 2},   {GateType::Xnor, 4, 2, 2},
      {GateType::Not, 15, 1, 1},  {GateType::Buf, 6, 1, 1},
  };
  unsigned total_w = 0;
  for (const auto& m : kMix) total_w += m.weight;

  std::vector<GateId> pool(sources.begin(), sources.end());
  std::vector<GateId> added;
  added.reserve(opt.gate_budget);
  for (std::size_t k = 0; k < opt.gate_budget; ++k) {
    unsigned pick = rng.next_below(total_w);
    const Mix* m = kMix;
    while (pick >= m->weight) { pick -= m->weight; ++m; }
    const unsigned span_in = m->min_in +
        (m->max_in > m->min_in ? rng.next_below(m->max_in - m->min_in + 1) : 0);
    const unsigned nin = std::min<unsigned>(span_in, opt.max_fanin);

    std::vector<GateId> fis;
    fis.reserve(nin);
    for (unsigned i = 0; i < nin; ++i) {
      GateId f;
      int guard = 0;
      do {
        if (rng.next_double() < opt.locality && pool.size() > opt.window) {
          const std::size_t lo = pool.size() - opt.window;
          f = pool[lo + rng.next_below(static_cast<std::uint32_t>(opt.window))];
        } else {
          f = pool[rng.next_below(static_cast<std::uint32_t>(pool.size()))];
        }
      } while (std::find(fis.begin(), fis.end(), f) != fis.end() && ++guard < 8);
      if (std::find(fis.begin(), fis.end(), f) != fis.end()) continue;
      fis.push_back(f);
    }
    if (fis.empty()) fis.push_back(pool.back());
    GateType t = m->t;
    if (fis.size() == 1 && t != GateType::Not && t != GateType::Buf)
      t = rng.next_bool() ? GateType::Not : GateType::Buf;
    const GateId g = n.add_gate(t, fis);
    pool.push_back(g);
    added.push_back(g);
  }
  return added;
}

std::vector<GateId> append_alu_slices(Netlist& n, std::span<const GateId> a,
                                      std::span<const GateId> b,
                                      std::span<const GateId> fsel) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("alu slices: operand size mismatch");
  if (fsel.size() < 2) throw std::invalid_argument("alu slices: need >=2 fsel");
  std::vector<GateId> outs;
  outs.reserve(a.size());
  GateId carry = fsel[fsel.size() - 1];  // carry-in doubles as a mode bit
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Function unit: AND / OR / XOR / ADD selected by fsel.
    const GateId f_and = n.add_gate(GateType::And, {a[i], b[i]});
    const GateId f_or = n.add_gate(GateType::Or, {a[i], b[i]});
    const GateId f_xor = n.add_gate(GateType::Xor, {a[i], b[i]});
    const auto fa = append_full_adder(n, a[i], b[i], carry);
    carry = fa.carry;
    // 4:1 mux from fsel[0], fsel[1].
    const GateId s0 = fsel[0], s1 = fsel[1];
    const GateId ns0 = n.add_gate(GateType::Not, {s0});
    const GateId ns1 = n.add_gate(GateType::Not, {s1});
    const GateId t0 = n.add_gate(GateType::And, {f_and, ns0});
    const GateId t1 = n.add_gate(GateType::And, {f_or, s0});
    const GateId m0 = n.add_gate(GateType::Or, {t0, t1});
    const GateId t2 = n.add_gate(GateType::And, {f_xor, ns0});
    const GateId t3 = n.add_gate(GateType::And, {fa.sum, s0});
    const GateId m1 = n.add_gate(GateType::Or, {t2, t3});
    const GateId u0 = n.add_gate(GateType::And, {m0, ns1});
    const GateId u1 = n.add_gate(GateType::And, {m1, s1});
    outs.push_back(n.add_gate(GateType::Or, {u0, u1}));
  }
  outs.push_back(carry);
  return outs;
}

Netlist make_array_multiplier(unsigned bits) {
  if (bits < 2) throw std::invalid_argument("multiplier: bits < 2");
  Netlist n("mult" + std::to_string(bits));
  std::vector<GateId> a, b;
  for (unsigned i = 0; i < bits; ++i) a.push_back(n.add_input("a" + std::to_string(i)));
  for (unsigned i = 0; i < bits; ++i) b.push_back(n.add_input("b" + std::to_string(i)));

  // Partial products.
  std::vector<std::vector<GateId>> pp(bits, std::vector<GateId>(bits));
  for (unsigned i = 0; i < bits; ++i)
    for (unsigned j = 0; j < bits; ++j)
      pp[i][j] = n.add_gate(GateType::And, {a[i], b[j]});

  // Weight-indexed accumulation: bit_at[w] is the current (single) partial
  // bit of weight w; each row is rippled in with HA/FA cells.
  std::vector<GateId> bit_at(2 * bits, kNoGate);
  for (unsigned j = 0; j < bits; ++j) bit_at[j] = pp[0][j];
  for (unsigned i = 1; i < bits; ++i) {
    GateId carry = kNoGate;
    for (unsigned j = 0; j < bits; ++j) {
      const unsigned w = i + j;
      const GateId x = pp[i][j];
      const GateId y = bit_at[w];
      if (y == kNoGate && carry == kNoGate) {
        bit_at[w] = x;
      } else if (y == kNoGate || carry == kNoGate) {
        const GateId other = (y == kNoGate) ? carry : y;
        bit_at[w] = n.add_gate(GateType::Xor, {x, other});
        carry = n.add_gate(GateType::And, {x, other});
      } else {
        const auto fa = append_full_adder(n, x, y, carry);
        bit_at[w] = fa.sum;
        carry = fa.carry;
      }
    }
    // Propagate the row carry into the higher weights.
    unsigned w = i + bits;
    while (carry != kNoGate && w < 2 * bits) {
      if (bit_at[w] == kNoGate) {
        bit_at[w] = carry;
        carry = kNoGate;
      } else {
        const GateId s = n.add_gate(GateType::Xor, {bit_at[w], carry});
        carry = n.add_gate(GateType::And, {bit_at[w], carry});
        bit_at[w] = s;
        ++w;
      }
    }
  }
  for (unsigned w = 0; w < 2 * bits; ++w) {
    // The top weight can stay empty for tiny widths; tie it to a constant 0
    // so the PO count is always 2*bits.
    if (bit_at[w] == kNoGate)
      bit_at[w] = n.add_gate(GateType::Xor, {pp[0][0], pp[0][0]});
    n.add_output(bit_at[w]);
  }
  n.freeze();
  return n;
}

Netlist make_ecc_circuit(unsigned data_bits, unsigned syndrome_bits) {
  if (data_bits < 4 || syndrome_bits < 2)
    throw std::invalid_argument("ecc: bad sizes");
  Netlist n("ecc" + std::to_string(data_bits));
  std::vector<GateId> d;
  for (unsigned i = 0; i < data_bits; ++i)
    d.push_back(n.add_input("d" + std::to_string(i)));
  std::vector<GateId> c;
  for (unsigned i = 0; i < syndrome_bits; ++i)
    c.push_back(n.add_input("c" + std::to_string(i)));

  // Syndrome bit j = parity of data bits whose index has bit j set, xor c[j].
  std::vector<GateId> syn;
  for (unsigned j = 0; j < syndrome_bits; ++j) {
    std::vector<GateId> leaves{c[j]};
    for (unsigned i = 0; i < data_bits; ++i)
      if ((i >> j) & 1) leaves.push_back(d[i]);
    syn.push_back(append_xor_tree(n, std::move(leaves)));
  }
  // Correction: decode syndrome -> flip the addressed data bit.
  for (unsigned i = 0; i < data_bits; ++i) {
    std::vector<GateId> lits;
    for (unsigned j = 0; j < syndrome_bits; ++j)
      lits.push_back(((i >> j) & 1) ? syn[j] : n.add_gate(GateType::Not, {syn[j]}));
    GateId sel = lits[0];
    for (std::size_t k = 1; k < lits.size(); ++k)
      sel = n.add_gate(GateType::And, {sel, lits[k]});
    n.add_output(n.add_gate(GateType::Xor, {d[i], sel}));
  }
  n.freeze();
  return n;
}

}  // namespace bist
