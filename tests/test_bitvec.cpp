#include "util/bitvec.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>

#include "test_util.hpp"

using bist::BitVec;

int main() {
  // construction / get / set
  BitVec v(130);
  CHECK_EQ(v.size(), 130u);
  CHECK(v.none());
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  CHECK(v.get(0));
  CHECK(v.get(64));
  CHECK(v.get(129));
  CHECK(!v.get(1));
  CHECK_EQ(v.popcount(), 3u);
  CHECK(v.any());
  v.flip(0);
  CHECK(!v.get(0));
  CHECK_EQ(v.popcount(), 2u);

  // filled construction + tail invariant: bits beyond size() stay zero
  BitVec ones(70, true);
  CHECK_EQ(ones.popcount(), 70u);
  CHECK_EQ(ones.word_count(), 2u);
  CHECK_EQ(ones.word(1), (std::uint64_t{1} << 6) - 1);

  // resize preserves prefix, clears tail
  ones.resize(65);
  CHECK_EQ(ones.popcount(), 65u);
  ones.resize(70, false);
  CHECK_EQ(ones.popcount(), 65u);
  CHECK(!ones.get(69));

  // push_back
  BitVec pb;
  pb.push_back(true);
  pb.push_back(false);
  pb.push_back(true);
  CHECK_EQ(pb.size(), 3u);
  CHECK(pb.get(0));
  CHECK(!pb.get(1));
  CHECK(pb.get(2));

  // string round trip
  const std::string s = "0110001011";
  BitVec fs = BitVec::from_string(s);
  CHECK_EQ(fs.size(), s.size());
  CHECK_EQ(fs.to_string(), s);
  CHECK(!fs.get(0));
  CHECK(fs.get(1));

  // word-parallel operators
  BitVec a = BitVec::from_string("1100");
  BitVec b = BitVec::from_string("1010");
  BitVec x = a;
  x &= b;
  CHECK_EQ(x.to_string(), "1000");
  x = a;
  x |= b;
  CHECK_EQ(x.to_string(), "1110");
  x = a;
  x ^= b;
  CHECK_EQ(x.to_string(), "0110");

  // equality + hash
  CHECK(BitVec::from_string("1010") == b);
  CHECK(!(a == b));
  CHECK(a.hash() != b.hash());

  // set_all / reset_all respect the tail invariant
  BitVec t(67);
  t.set_all();
  CHECK_EQ(t.popcount(), 67u);
  CHECK_EQ(t.word(1) >> 3, 0u);
  t.reset_all();
  CHECK(t.none());

  // transpose64: bit j of row i lands at bit i of row j, and transposing
  // twice gives the matrix back.
  {
    std::array<std::uint64_t, 64> a;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& row : a) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      row = x;
    }
    const std::array<std::uint64_t, 64> orig = a;
    bist::transpose64(a);
    bool ok = true;
    for (unsigned i = 0; i < 64; ++i)
      for (unsigned j = 0; j < 64; ++j)
        ok = ok && ((a[j] >> i) & 1) == ((orig[i] >> j) & 1);
    CHECK(ok);
    bist::transpose64(a);
    CHECK(a == orig);
  }

  return bist_test::summary();
}
