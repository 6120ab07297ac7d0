#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/bitpar_sim.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

using namespace bist;

int main() {
  // lane mapping: word(i) bit L == pattern L's bit i
  std::vector<BitVec> pats;
  pats.push_back(BitVec::from_string("101"));
  pats.push_back(BitVec::from_string("011"));
  pats.push_back(BitVec::from_string("110"));
  PatternBlock b = pack_patterns(pats, 3);
  CHECK_EQ(b.width, 3u);
  CHECK_EQ(b.count, 3u);
  CHECK_EQ(b.lane_mask(), 0b111u);
  CHECK_EQ(b.input_words[0], 0b101u);  // input 0: pats 0,2 set
  CHECK_EQ(b.input_words[1], 0b110u);  // input 1: pats 1,2 set
  CHECK_EQ(b.input_words[2], 0b011u);  // input 2: pats 0,1 set

  // width mismatch throws
  std::vector<BitVec> badpats{BitVec::from_string("10")};
  CHECK_THROWS(pack_patterns(badpats, 3));

  // >64 patterns: pack_patterns takes the first 64, pack_all splits
  Rng rng(7);
  std::vector<BitVec> many;
  for (int i = 0; i < 150; ++i) {
    BitVec p(5);
    for (int j = 0; j < 5; ++j) p.set(j, rng.next_bool());
    many.push_back(p);
  }
  PatternBlock first = pack_patterns(many, 5);
  CHECK_EQ(first.count, 64u);
  CHECK_EQ(first.lane_mask(), ~std::uint64_t{0});

  auto blocks = pack_all(many, 5);
  CHECK_EQ(blocks.size(), 3u);
  CHECK_EQ(blocks[0].count, 64u);
  CHECK_EQ(blocks[1].count, 64u);
  CHECK_EQ(blocks[2].count, 22u);
  CHECK_EQ(blocks[2].lane_mask(), (std::uint64_t{1} << 22) - 1);
  // every pattern bit lands in the right block/lane/word
  for (std::size_t p = 0; p < many.size(); ++p) {
    const auto& blk = blocks[p / 64];
    const std::size_t lane = p % 64;
    for (std::size_t i = 0; i < 5; ++i)
      CHECK_EQ(many[p].get(i), bool((blk.input_words[i] >> lane) & 1));
  }

  // empty pattern list → no blocks
  CHECK_EQ(pack_all({}, 5).size(), 0u);

  // The column transposes against per-bit packing: widths on and off the
  // 64-input column edge, one pattern, fewer than 64, exactly 64, and more
  // (only the first 64 are packed).
  {
    std::size_t blocks_checked = 0, bad = 0;
    for (const std::size_t width : {1u, 5u, 63u, 64u, 65u, 130u, 200u})
      for (const std::size_t count : {1u, 2u, 37u, 63u, 64u, 70u}) {
        std::vector<BitVec> pats;
        for (std::size_t p = 0; p < count; ++p) {
          BitVec v(width);
          for (std::size_t i = 0; i < width; ++i) v.set(i, rng.next_bool());
          pats.push_back(v);
        }
        const PatternBlock got = pack_patterns(pats, width);
        std::vector<std::uint64_t> want(width, 0);
        const std::size_t lanes = std::min<std::size_t>(count, 64);
        for (std::size_t lane = 0; lane < lanes; ++lane)
          for (std::size_t i = 0; i < width; ++i)
            if (pats[lane].get(i)) want[i] |= std::uint64_t{1} << lane;
        ++blocks_checked;
        bad += got.width != width || got.count != lanes ||
               got.input_words != want;
      }
    CHECK_EQ(blocks_checked, 42u);
    CHECK_EQ(bad, 0u);

    // The width check still covers a pattern past the first column.
    std::vector<BitVec> mixed(3, BitVec(130));
    mixed[2] = BitVec(129);
    CHECK_THROWS(pack_patterns(mixed, 130));
  }

  return bist_test::summary();
}
