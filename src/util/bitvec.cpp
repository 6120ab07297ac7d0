#include "util/bitvec.hpp"

#include <bit>
#include <stdexcept>

namespace bist {

BitVec::BitVec(std::size_t n, bool value) { resize(n, value); }

BitVec BitVec::from_string(std::string_view s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    switch (s[i]) {
      case '0': break;
      case '1': v.set(i, true); break;
      default: throw std::invalid_argument("BitVec::from_string: bad char");
    }
  }
  return v;
}

void BitVec::resize(std::size_t n, bool value) {
  const std::size_t old = size_;
  words_.resize((n + 63) / 64, value ? ~std::uint64_t{0} : 0);
  if (value && n > old && old % 64 != 0 && !words_.empty()) {
    // Fill the gap bits in the word that straddles the old size.
    words_[old >> 6] |= ~std::uint64_t{0} << (old & 63);
  }
  size_ = n;
  trim_tail();
}

void BitVec::push_back(bool v) {
  if (size_ % 64 == 0) words_.push_back(0);
  ++size_;
  if (v) set(size_ - 1, true);
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitVec::none() const {
  for (auto w : words_)
    if (w != 0) return false;
  return true;
}

void BitVec::set_all() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  trim_tail();
}

void BitVec::reset_all() {
  for (auto& w : words_) w = 0;
}

BitVec& BitVec::operator&=(const BitVec& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  trim_tail();
  return *this;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

std::size_t BitVec::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (auto w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h ^= size_;
  h *= 1099511628211ull;
  return static_cast<std::size_t>(h);
}

void BitVec::trim_tail() {
  if (size_ % 64 != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << (size_ & 63)) - 1;
}

void transpose64(std::span<std::uint64_t, 64> a) {
  // Swap ever smaller off-diagonal blocks: at block size j, the high j bits
  // of row k trade places with the low j bits of row k + j.
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j)
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k | j] ^= t;
      a[k] ^= t << j;
    }
}

}  // namespace bist
