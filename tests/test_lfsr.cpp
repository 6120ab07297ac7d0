#include <set>
#include <stdexcept>

#include "test_util.hpp"
#include "tpg/lfsr.hpp"

using namespace bist;

namespace {

// Count steps until the state first repeats the seed (sequence period).
std::size_t state_period(Lfsr l, std::size_t limit) {
  const std::uint64_t start = l.state();
  for (std::size_t i = 1; i <= limit; ++i) {
    l.step();
    if (l.state() == start) return i;
  }
  return 0;
}

}  // namespace

int main() {
  // Tap correctness: degree-4 x^4+x^3+1 from seed 1 walks the known
  // maximal-length state sequence (hand-computed: left shift, MSB out,
  // feedback = parity(state & 0b1100)).
  {
    Lfsr l(4, 0xC, 1);
    const std::uint64_t expect[] = {2, 4, 9, 3, 6, 13, 10, 5, 11, 7, 15, 14, 12, 8, 1};
    for (std::uint64_t e : expect) {
      l.step();
      CHECK_EQ(l.state(), e);
    }
  }

  // Output bit is the pre-shift MSB.
  {
    Lfsr l(4, 0xC, 0b1000);
    CHECK(l.step());
    Lfsr l2(4, 0xC, 0b0100);
    CHECK(!l2.step());
  }

  // Maximal-length polynomials hit period 2^n - 1 and visit every nonzero
  // state exactly once.
  for (unsigned degree : {4u, 8u, 16u}) {
    Lfsr l = Lfsr::maximal(degree);
    const std::size_t expect = (std::size_t{1} << degree) - 1;
    CHECK_EQ(state_period(l, expect + 8), expect);
    std::set<std::uint64_t> seen;
    Lfsr l2 = Lfsr::maximal(degree, 1);
    for (std::size_t i = 0; i < expect; ++i) {
      seen.insert(l2.state());
      l2.step();
    }
    CHECK_EQ(seen.size(), expect);
  }

  // A non-primitive polynomial must NOT reach full period (x^4+x^2+1 splits
  // the state space into short cycles).
  {
    Lfsr l(4, 0b1010, 1);
    CHECK(state_period(l, 64) < 15u);
  }

  // next_block packs the same stream bits as repeated step().
  {
    Lfsr a = Lfsr::maximal(16, 0xACE1);
    Lfsr b = Lfsr::maximal(16, 0xACE1);
    const std::size_t width = 9;
    PatternBlock blk = a.next_block(width, 64);
    CHECK_EQ(blk.width, width);
    CHECK_EQ(blk.count, 64u);
    for (std::size_t lane = 0; lane < 64; ++lane)
      for (std::size_t i = 0; i < width; ++i)
        CHECK_EQ(bool((blk.input_words[i] >> lane) & 1), b.step());
    // and next_pattern continues the same stream
    BitVec p = a.next_pattern(width);
    for (std::size_t i = 0; i < width; ++i) CHECK_EQ(p.get(i), b.step());
  }

  // blocks() covers `total` patterns with a ragged tail
  {
    Lfsr l = Lfsr::maximal(24);
    auto blocks = l.blocks(5, 130);
    CHECK_EQ(blocks.size(), 3u);
    CHECK_EQ(blocks[2].count, 2u);
  }

  // Successive blocks() calls of unaligned sizes continue one stream: each
  // call starts at lane 0 of a fresh block, and the patterns, in order, are
  // exactly what next_pattern produces (the mixed scheme's sign-off pass
  // cuts the stream at every sweep length this way).
  {
    const std::size_t width = 37;
    Lfsr seg = Lfsr::maximal(24, 0xBADC0FFE);
    Lfsr ref = Lfsr::maximal(24, 0xBADC0FFE);
    for (const std::size_t size : {100u, 1u, 233u, 0u, 64u, 666u, 63u}) {
      const auto blocks = seg.blocks(width, size);
      CHECK_EQ(blocks.size(), (size + 63) / 64);
      std::size_t t = 0;
      for (const PatternBlock& blk : blocks)
        for (std::size_t lane = 0; lane < blk.count; ++lane, ++t) {
          const BitVec p = ref.next_pattern(width);
          for (std::size_t i = 0; i < width; ++i)
            CHECK_EQ(bool((blk.input_words[i] >> lane) & 1), p.get(i));
        }
      CHECK_EQ(t, size);
      CHECK_EQ(seg.state(), ref.state());
    }
  }

  // invalid configurations
  CHECK_THROWS(Lfsr(1, 1, 1));
  CHECK_THROWS(Lfsr(4, 0, 1));       // no taps
  CHECK_THROWS(Lfsr(4, 0xC, 0));     // all-zero seed
  CHECK_THROWS(Lfsr(4, 0xC, 0x10));  // seed outside the register (masks to 0)
  CHECK_THROWS(Lfsr::primitive_taps(33));

  return bist_test::summary();
}
