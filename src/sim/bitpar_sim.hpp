#pragma once
// 64-lane bit-parallel 2-valued logic simulator.  Each 64-bit word carries
// one signal across 64 test patterns (pattern-parallel, PPSFP style); a full
// netlist evaluation is one pass over the gate array in topological order.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/bitvec.hpp"

namespace bist {

/// A block of up to 64 test patterns for a circuit with `width` inputs,
/// stored input-major: word(i) bit L = value of input i in pattern L.
struct PatternBlock {
  std::size_t width = 0;       ///< number of primary inputs
  std::size_t count = 0;       ///< number of valid pattern lanes (<= 64)
  std::vector<std::uint64_t> input_words;

  /// Lane mask with `count` low bits set.
  std::uint64_t lane_mask() const {
    return count >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << count) - 1);
  }
};

/// Pack up to 64 patterns (each a BitVec of length = input count) into a
/// PatternBlock.  Patterns beyond 64 are ignored by this call.
PatternBlock pack_patterns(std::span<const BitVec> patterns, std::size_t width);

/// Split an arbitrary pattern list into consecutive 64-pattern blocks.
std::vector<PatternBlock> pack_all(std::span<const BitVec> patterns,
                                   std::size_t width);

/// Evaluate one gate's function over packed fanin words.
std::uint64_t eval_gate_words(GateType t, std::span<const std::uint64_t> ins);

/// Bit-parallel simulator bound to a frozen netlist.
class BitParSim {
 public:
  explicit BitParSim(const Netlist& n);

  /// Simulate one block; afterwards value(g) holds gate g's word.
  void simulate(const PatternBlock& block);

  std::uint64_t value(GateId g) const { return values_[g]; }
  std::span<const std::uint64_t> values() const { return values_; }

  const Netlist& netlist() const { return *n_; }

 private:
  const Netlist* n_;
  std::vector<std::uint64_t> values_;
};

/// Convenience: simulate a single fully-specified pattern, returning PO bits.
BitVec simulate_single(const Netlist& n, const BitVec& pattern);

}  // namespace bist
