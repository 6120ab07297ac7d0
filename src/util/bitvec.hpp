#pragma once
// Fixed-size packed bit vector used for test patterns, fault masks and
// LFSROM bit-streams.  64-bit word granularity to match the bit-parallel
// simulator (one pattern per lane).

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bist {

/// Packed vector of bits with word-level access for bit-parallel algorithms.
///
/// Invariant: bits beyond size() in the last word are always zero, so
/// popcount(), words() and operator== never see stale tail bits.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n, bool value = false);

  /// Parse from a string of '0'/'1' characters, index 0 = first character.
  static BitVec from_string(std::string_view s);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v) words_[i >> 6] |= mask; else words_[i >> 6] &= ~mask;
  }
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  void resize(std::size_t n, bool value = false);
  void push_back(bool v);
  void clear() { words_.clear(); size_ = 0; }

  /// Number of set bits.
  std::size_t popcount() const;
  /// True iff no bit is set.
  bool none() const;
  /// True iff at least one bit is set.
  bool any() const { return !none(); }

  /// Word-level access (for the bit-parallel simulator).
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  std::uint64_t& word(std::size_t w) { return words_[w]; }

  void set_all();
  void reset_all();

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);

  bool operator==(const BitVec& o) const = default;

  /// Render as '0'/'1' string, index 0 first.
  std::string to_string() const;

  /// FNV-1a hash over the payload words (used by pattern dedup).
  std::size_t hash() const;

 private:
  void trim_tail();
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Transpose a 64x64 bit matrix in place: bit j of a[i] and bit i of a[j]
/// swap.  Turns 64 row words (one pattern or register state each) into 64
/// lane words (one bit position across the 64 lanes) and back.
void transpose64(std::span<std::uint64_t, 64> a);

}  // namespace bist
