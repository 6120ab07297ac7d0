#include "sim/bitpar_sim.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace bist {

PatternBlock pack_patterns(std::span<const BitVec> patterns, std::size_t width) {
  PatternBlock b;
  b.width = width;
  b.count = std::min<std::size_t>(patterns.size(), 64);
  b.input_words.assign(width, 0);
  for (std::size_t lane = 0; lane < b.count; ++lane)
    if (patterns[lane].size() != width)
      throw std::invalid_argument("pack_patterns: pattern width mismatch");
  // Per 64-input column: row p is pattern p's BitVec word for those inputs
  // (zero past its last bit), and one transpose turns the rows into the
  // inputs' lane words.
  std::array<std::uint64_t, 64> rows;
  for (std::size_t c = 0; c < width; c += 64) {
    for (std::size_t p = 0; p < 64; ++p)
      rows[p] = p < b.count ? patterns[p].word(c / 64) : 0;
    transpose64(rows);
    std::copy_n(rows.begin(), std::min<std::size_t>(64, width - c),
                b.input_words.begin() + c);
  }
  return b;
}

std::vector<PatternBlock> pack_all(std::span<const BitVec> patterns,
                                   std::size_t width) {
  std::vector<PatternBlock> blocks;
  for (std::size_t off = 0; off < patterns.size(); off += 64)
    blocks.push_back(pack_patterns(
        patterns.subspan(off, std::min<std::size_t>(64, patterns.size() - off)),
        width));
  return blocks;
}

std::uint64_t eval_gate_words(GateType t, std::span<const std::uint64_t> ins) {
  switch (t) {
    case GateType::Input: return 0;  // inputs are set externally
    case GateType::Const0: return 0;
    case GateType::Const1: return ~std::uint64_t{0};
    case GateType::Buf: return ins[0];
    case GateType::Not: return ~ins[0];
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t v = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) v &= ins[i];
      return t == GateType::Nand ? ~v : v;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t v = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) v |= ins[i];
      return t == GateType::Nor ? ~v : v;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint64_t v = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) v ^= ins[i];
      return t == GateType::Xnor ? ~v : v;
    }
  }
  return 0;
}

BitParSim::BitParSim(const Netlist& n) : n_(&n), values_(n.gate_count(), 0) {
  if (!n.frozen()) throw std::invalid_argument("BitParSim: netlist not frozen");
}

void BitParSim::simulate(const PatternBlock& block) {
  if (block.width != n_->input_count())
    throw std::invalid_argument("BitParSim: block width mismatch");
  std::uint64_t fis[64];
  for (GateId g = 0; g < n_->gate_count(); ++g) {
    const Gate& gg = n_->gate(g);
    if (gg.type == GateType::Input) {
      values_[g] = block.input_words[n_->input_index(g)];
      continue;
    }
    const std::size_t nin = gg.fanins.size();
    if (nin > 64) throw std::runtime_error("gate fanin > 64 unsupported");
    for (std::size_t i = 0; i < nin; ++i) fis[i] = values_[gg.fanins[i]];
    values_[g] = eval_gate_words(gg.type, {fis, nin});
  }
}

BitVec simulate_single(const Netlist& n, const BitVec& pattern) {
  BitParSim sim(n);
  sim.simulate(pack_patterns({&pattern, 1}, n.input_count()));
  BitVec out(n.output_count());
  for (std::size_t i = 0; i < n.output_count(); ++i)
    out.set(i, sim.value(n.outputs()[i]) & 1);
  return out;
}

}  // namespace bist
