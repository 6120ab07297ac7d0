#include "sim/pair_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace bist {

namespace {

// The "is 0" / "is 1" rails of both lanes.
constexpr std::uint8_t kRail0 = 0x5;
constexpr std::uint8_t kRail1 = 0xA;

// v in both lanes.
std::uint8_t both_lanes(Ternary v) {
  return v == Ternary::V0 ? kRail0 : v == Ternary::V1 ? kRail1 : 0;
}

// Inversion: swap the rails within each lane (X stays X).
inline std::uint8_t swap_rails(unsigned p) {
  return static_cast<std::uint8_t>(((p & kRail0) << 1) | ((p & kRail1) >> 1));
}

// Two-input XOR per lane: 0 where the inputs agree, 1 where they differ, X
// if either is X.  `same` has rail r set where both inputs have rail r,
// `cross` where a has rail r and b the other one; folding each lane's two
// rails of `same` gives the 0-rail, of `cross` the 1-rail.
inline std::uint8_t xor2(unsigned a, unsigned b) {
  const unsigned same = a & b;
  const unsigned cross = a & swap_rails(b);
  return static_cast<std::uint8_t>(((same | (same >> 1)) & kRail0) |
                                   (((cross | (cross >> 1)) & kRail0) << 1));
}

}  // namespace

PairSim::PairSim(const SimKernel& k) : k_(&k) {
  values_.assign(k.gate_count(), 0);
  level_queues_.resize(k.max_level() + 1);
  queued_.assign(k.gate_count(), 0);
  reset(kNoGate, -1, Ternary::VX);
}

void PairSim::reset(KIndex site, int pin, Ternary stuck) {
  site_ = kNoGate;
  branch_ = false;
  trail_.clear();
  if (site != kNoGate && pin >= 0) {
    const std::uint32_t* off = k_->fanin_offset_data();
    if (off[site] + static_cast<std::uint32_t>(pin) >= off[site + 1])
      throw std::out_of_range("PairSim::reset: fault pin out of range");
    branch_ = true;
    forced_slot_ = off[site] + static_cast<std::uint32_t>(pin);
  }
  site_ = site;
  stuck_lane_ = both_lanes(stuck) & 0xC;
  for (KIndex g = 0; g < k_->gate_count(); ++g) values_[g] = compute(g);
}

template <bool kBranch>
std::uint8_t PairSim::eval(KIndex g) const {
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  const std::uint32_t b = off[g];
  const std::uint32_t e = off[g + 1];
  const auto in = [&](std::uint32_t i) -> unsigned {
    const unsigned p = values_[fi[i]];
    if constexpr (kBranch)
      if (i == forced_slot_) return (p & 0x3) | stuck_lane_;
    return p;
  };
  const GateType t = k_->type(g);
  switch (t) {
    case GateType::Input: return 0;  // unassigned; assign() sets PIs
    case GateType::Const0: return kRail0;
    case GateType::Const1: return kRail1;
    case GateType::Buf: return static_cast<std::uint8_t>(in(b));
    case GateType::Not: return swap_rails(in(b));
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      unsigned any = 0, all = 0xF;
      for (std::uint32_t i = b; i < e; ++i) {
        const unsigned p = in(i);
        any |= p;
        all &= p;
      }
      // AND: some input 0 -> 0, every input 1 -> 1; OR is the dual.
      const bool is_and = t == GateType::And || t == GateType::Nand;
      const unsigned r = is_and ? (any & kRail0) | (all & kRail1)
                                : (any & kRail1) | (all & kRail0);
      const bool inv = t == GateType::Nand || t == GateType::Nor;
      return inv ? swap_rails(r) : static_cast<std::uint8_t>(r);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      unsigned acc = kRail0;
      for (std::uint32_t i = b; i < e; ++i) acc = xor2(acc, in(i));
      return t == GateType::Xnor ? swap_rails(acc)
                                 : static_cast<std::uint8_t>(acc);
    }
  }
  return 0;
}

std::uint8_t PairSim::compute(KIndex g) const {
  if (g != site_) return eval<false>(g);
  if (branch_) return eval<true>(g);
  return static_cast<std::uint8_t>((eval<false>(g) & 0x3) | stuck_lane_);
}

void PairSim::set(KIndex g, std::uint8_t v) {
  trail_.push_back({g, values_[g]});
  values_[g] = v;
}

void PairSim::enqueue_fanouts(KIndex g) {
  for (KIndex f : k_->fanouts(g)) {
    if (queued_[f]) continue;
    queued_[f] = 1;
    const unsigned lv = k_->level(f);
    level_queues_[lv].push_back(f);
    hi_level_ = std::max(hi_level_, lv);
  }
}

void PairSim::assign(std::size_t input_idx, Ternary v) {
  const KIndex root = k_->inputs()[input_idx];
  std::uint8_t p = both_lanes(v);
  if (root == site_ && !branch_)
    p = static_cast<std::uint8_t>((p & 0x3) | stuck_lane_);
  if (p == values_[root]) return;
  set(root, p);

  // Levelized propagation: fanouts sit at strictly higher levels, so walking
  // the levels upwards evaluates every gate at most once.
  hi_level_ = 0;
  enqueue_fanouts(root);
  for (unsigned lv = k_->level(root) + 1; lv <= hi_level_; ++lv) {
    auto& q = level_queues_[lv];
    for (const KIndex g : q) {
      queued_[g] = 0;
      const std::uint8_t nv = compute(g);
      if (nv == values_[g]) continue;
      set(g, nv);
      enqueue_fanouts(g);
    }
    q.clear();
  }
}

void PairSim::undo(std::size_t m) {
  while (trail_.size() > m) {
    const TrailEntry& e = trail_.back();
    values_[e.gate] = e.old;
    trail_.pop_back();
  }
}

}  // namespace bist
