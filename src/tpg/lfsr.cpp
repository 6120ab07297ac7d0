#include "tpg/lfsr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace bist {
namespace {

// Maximal-length tap masks, degrees 2..32 (the standard XOR-form tables;
// comments list the tapped stages, 1-based from the feedback end, so
// [4,3] = taps mask bits {3,2}).  Each primitive polynomial's reciprocal is
// also primitive, so either stage-numbering convention yields full period.
constexpr std::uint64_t kPrimitiveTaps[33] = {
    0, 0,
    /* 2: [2,1]        */ 0x3,
    /* 3: [3,2]        */ 0x6,
    /* 4: [4,3]        */ 0xC,
    /* 5: [5,3]        */ 0x14,
    /* 6: [6,5]        */ 0x30,
    /* 7: [7,6]        */ 0x60,
    /* 8: [8,6,5,4]    */ 0xB8,
    /* 9: [9,5]        */ 0x110,
    /*10: [10,7]       */ 0x240,
    /*11: [11,9]       */ 0x500,
    /*12: [12,6,4,1]   */ 0x829,
    /*13: [13,4,3,1]   */ 0x100D,
    /*14: [14,5,3,1]   */ 0x2015,
    /*15: [15,14]      */ 0x6000,
    /*16: [16,15,13,4] */ 0xD008,
    /*17: [17,14]      */ 0x12000,
    /*18: [18,11]      */ 0x20400,
    /*19: [19,6,2,1]   */ 0x40023,
    /*20: [20,17]      */ 0x90000,
    /*21: [21,19]      */ 0x140000,
    /*22: [22,21]      */ 0x300000,
    /*23: [23,18]      */ 0x420000,
    /*24: [24,23,22,17]*/ 0xE10000,
    /*25: [25,22]      */ 0x1200000,
    /*26: [26,6,2,1]   */ 0x2000023,
    /*27: [27,5,2,1]   */ 0x4000013,
    /*28: [28,25]      */ 0x9000000,
    /*29: [29,27]      */ 0x14000000,
    /*30: [30,6,4,1]   */ 0x20000029,
    /*31: [31,28]      */ 0x48000000,
    /*32: [32,22,2,1]  */ 0x80200003,
};

/// The low `n` bits of v in reverse order.
std::uint64_t reverse_low(std::uint64_t v, unsigned n) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < n; ++i) r |= ((v >> i) & 1) << (n - 1 - i);
  return r;
}

}  // namespace

Lfsr::Lfsr(unsigned degree, std::uint64_t taps, std::uint64_t seed)
    : degree_(degree), taps_(taps) {
  if (degree < 2 || degree > 64)
    throw std::invalid_argument("Lfsr: degree must be in [2, 64]");
  mask_ = degree == 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << degree) - 1);
  taps_ &= mask_;
  if (taps_ == 0) throw std::invalid_argument("Lfsr: empty tap set");
  if (!((taps_ >> (degree - 1)) & 1))
    throw std::invalid_argument("Lfsr: output stage (bit degree-1) must be tapped");
  state_ = seed & mask_;
  if (state_ == 0)
    throw std::invalid_argument("Lfsr: all-zero seed is a fixed point");
}

std::uint64_t Lfsr::primitive_taps(unsigned degree) {
  if (degree < 2 || degree > 32)
    throw std::invalid_argument("Lfsr::primitive_taps: degree must be in [2, 32]");
  return kPrimitiveTaps[degree];
}

Lfsr Lfsr::maximal(unsigned degree, std::uint64_t seed) {
  return Lfsr(degree, primitive_taps(degree), seed);
}

std::uint64_t Lfsr::shifted(std::uint64_t s) const {
  return ((s << 1) | (std::popcount(s & taps_) & 1u)) & mask_;
}

bool Lfsr::step() {
  const bool out = (state_ >> (degree_ - 1)) & 1;
  state_ = shifted(state_);
  return out;
}

void Lfsr::fill(BitVec& bv) {
  for (std::size_t i = 0; i < bv.size(); ++i) bv.set(i, step());
}

BitVec Lfsr::next_pattern(std::size_t width) {
  BitVec bv(width);
  fill(bv);
  return bv;
}

void Lfsr::next_bits(std::uint64_t* out, std::size_t n) {
  const unsigned D = degree_;
  const unsigned bytes = (D + 7) / 8;
  if (leap_.empty()) {
    // Column j of the leap: the register whose j-th next output bit alone
    // is set, stepped D times and read output-first again.
    std::vector<std::uint64_t> col(bytes * 8, 0);
    for (unsigned j = 0; j < D; ++j) {
      std::uint64_t s = std::uint64_t{1} << (D - 1 - j);
      for (unsigned t = 0; t < D; ++t) s = shifted(s);
      col[j] = reverse_low(s, D);
    }
    leap_.assign(bytes * 256, 0);
    for (unsigned k = 0; k < bytes; ++k)
      for (unsigned x = 1; x < 256; ++x)
        leap_[k * 256 + x] = leap_[k * 256 + (x & (x - 1))] ^
                             col[k * 8 + std::countr_zero(x)];
  }

  std::uint64_t out_first = reverse_low(state_, D);
  std::size_t pos = 0;
  for (; pos + D <= n; pos += D) {
    const unsigned sh = pos & 63;
    out[pos >> 6] |= out_first << sh;
    if (sh + D > 64) out[(pos >> 6) + 1] |= out_first >> (64 - sh);
    std::uint64_t next = 0;
    for (unsigned k = 0; k < bytes; ++k)
      next ^= leap_[k * 256 + ((out_first >> (8 * k)) & 0xff)];
    out_first = next;
  }
  state_ = reverse_low(out_first, D);
  for (; pos < n; ++pos)
    if (step()) out[pos >> 6] |= std::uint64_t{1} << (pos & 63);
}

PatternBlock Lfsr::next_block(std::size_t width, std::size_t count) {
  if (count > 64) throw std::invalid_argument("Lfsr::next_block: count > 64");
  PatternBlock b;
  b.width = width;
  b.count = count;
  b.input_words.assign(width, 0);
  // Pattern p is stream bits [p*width, (p+1)*width); one spare word lets
  // every 64-bit read below straddle a word boundary.
  const std::size_t n = width * count;
  std::vector<std::uint64_t> bits(n / 64 + 2, 0);
  next_bits(bits.data(), n);
  std::array<std::uint64_t, 64> rows;
  for (std::size_t c = 0; c < width; c += 64) {
    // Row p: pattern p's inputs c.. (bits past the last input transpose
    // into lane words that are not kept).
    for (std::size_t p = 0; p < 64; ++p) {
      const std::size_t at = p * width + c;
      const unsigned sh = at & 63;
      rows[p] = p >= count ? 0
                           : (bits[at >> 6] >> sh) |
                                 (sh ? bits[(at >> 6) + 1] << (64 - sh) : 0);
    }
    transpose64(rows);
    std::copy_n(rows.begin(), std::min<std::size_t>(64, width - c),
                b.input_words.begin() + c);
  }
  return b;
}

std::vector<PatternBlock> Lfsr::blocks(std::size_t width, std::size_t total) {
  std::vector<PatternBlock> out;
  out.reserve((total + 63) / 64);
  for (std::size_t off = 0; off < total; off += 64)
    out.push_back(next_block(width, std::min<std::size_t>(64, total - off)));
  return out;
}

}  // namespace bist
