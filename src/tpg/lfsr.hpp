#pragma once
// External-XOR (Fibonacci) LFSR pseudo-random pattern source — the paper's
// pseudo-random phase generator.  Parameterized by its characteristic
// polynomial; with a primitive polynomial the state sequence is maximal
// length (period 2^degree - 1, the all-zero state excluded).
//
// Bit-stream convention: the register shifts left one position per step and
// emits its former MSB; a test pattern for a `width`-input circuit is
// `width` consecutive stream bits (test-per-clock, as in the BIST TPG).
// Patterns are packed straight into 64-lane PatternBlocks for the
// bit-parallel simulators.
//
// Two generators of one stream.  step()/fill()/next_pattern() shift one bit
// at a time: the reference.  next_block()/blocks() produce it word-parallel:
// in this Fibonacci form the register holds the next `degree` output bits
// (bit degree-1 first), so they are emitted in one go and the register then
// leaps `degree` steps at once through a precomputed M^degree, applied as
// ceil(degree/8) byte-indexed table lookups; a 64x64 bit transpose turns 64
// patterns' stream bits into the block's lane words.  Both leave state() in
// the same place.

#include <cstdint>

#include "sim/bitpar_sim.hpp"
#include "util/bitvec.hpp"

namespace bist {

class Lfsr {
 public:
  /// `degree` in [2, 64].  Bit i of `taps` set means state bit i feeds the
  /// XOR network; since stage i holds the feedback bit from i+1 steps ago,
  /// the output stream obeys f(t) = XOR(f(t-i-1) : bit i set), i.e. the
  /// characteristic polynomial is x^degree + sum(x^(degree-1-i)).  Bit
  /// degree-1 (the output stage) must be set or the recurrence degenerates.
  /// `seed` must be non-zero in its low `degree` bits (the all-zero state is
  /// a fixed point); high bits are masked off.  Throws std::invalid_argument
  /// on any violation.
  Lfsr(unsigned degree, std::uint64_t taps, std::uint64_t seed = 1);

  /// Known-primitive polynomial for this degree (maximal-length sequence).
  /// Supported for every degree in [2, 32]; throws outside that range.
  static std::uint64_t primitive_taps(unsigned degree);
  /// Convenience: maximal-length LFSR of the given degree.
  static Lfsr maximal(unsigned degree, std::uint64_t seed = 1);

  unsigned degree() const { return degree_; }
  std::uint64_t taps() const { return taps_; }
  std::uint64_t state() const { return state_; }

  /// Shift one position; returns the bit shifted out (former MSB).
  bool step();

  /// Next `bv.size()` stream bits into an existing BitVec (index 0 first).
  void fill(BitVec& bv);
  /// Next `width` stream bits as a fresh pattern.
  BitVec next_pattern(std::size_t width);

  /// Pack the next `count` (<= 64) patterns of `width` bits each directly
  /// into a PatternBlock (lane L = L-th pattern generated).
  PatternBlock next_block(std::size_t width, std::size_t count = 64);
  /// `total` patterns split into consecutive blocks.
  std::vector<PatternBlock> blocks(std::size_t width, std::size_t total);

 private:
  /// Register `s` after one step.
  std::uint64_t shifted(std::uint64_t s) const;
  /// Next `n` stream bits ORed into `out` LSB-first (stream bit k at bit
  /// k % 64 of out[k / 64]).
  void next_bits(std::uint64_t* out, std::size_t n);

  unsigned degree_;
  std::uint64_t taps_;
  std::uint64_t mask_;
  std::uint64_t state_;
  /// The degree-step leap on the register read output-first (bit j = the
  /// j-th next output bit): table k maps byte k of it to its share of the
  /// leapt register.  Built on the first next_block().
  std::vector<std::uint64_t> leap_;
};

}  // namespace bist
