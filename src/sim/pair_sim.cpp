#include "sim/pair_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace bist {

namespace {

// The "is 0" / "is 1" rails of every machine of every lane.
constexpr std::uint64_t kRail0 = 0x5555555555555555ull;
constexpr std::uint64_t kRail1 = 0xAAAAAAAAAAAAAAAAull;

// v in both machines, as one lane's nibble.
std::uint64_t both_machines(Ternary v) {
  return v == Ternary::V0 ? 0x5 : v == Ternary::V1 ? 0xA : 0;
}

// Inversion: swap the rails within each machine (X stays X).
inline LaneWords swap_rails(LaneWords p) {
  return ((p & kRail0) << 1) | ((p & kRail1) >> 1);
}

// Two-input XOR per machine: 0 where the inputs agree, 1 where they differ,
// X if either is X.  `same` has rail r set where both inputs have rail r,
// `cross` where a has rail r and b the other one; folding each machine's two
// rails of `same` gives the 0-rail, of `cross` the 1-rail.
inline LaneWords xor2(LaneWords a, LaneWords b) {
  const LaneWords same = a & b;
  const LaneWords cross = a & swap_rails(b);
  return ((same | (same >> 1)) & kRail0) |
         (((cross | (cross >> 1)) & kRail0) << 1);
}

}  // namespace

PairSim::PairSim(const SimKernel& k) : k_(&k) {
  values_.assign(k.gate_count(), LaneWords{});
  pi_.assign(k.inputs().size(), LaneWords{});
  stem_mask_.assign(k.gate_count(), LaneWords{});
  stem_val_.assign(k.gate_count(), LaneWords{});
  pin_mask_.assign(k.fanin_offset_data()[k.gate_count()], LaneWords{});
  pin_val_.assign(pin_mask_.size(), LaneWords{});
  injected_.assign(k.gate_count(), 0);
  const std::span<const std::uint32_t> lv = k.schedule_level_offsets();
  const std::span<const KIndex> sched = k.schedule();
  std::vector<KIndex> gates(sched.begin(), sched.end());
  const auto key = [&](KIndex g) {
    return static_cast<unsigned>(k.op(g)) * 2 + (k.invert_mask(g) != 0);
  };
  for (std::size_t l = 0; l + 1 < lv.size(); ++l) {
    const auto b = gates.begin() + lv[l];
    const auto e = gates.begin() + lv[l + 1];
    std::stable_sort(b, e, [&](KIndex x, KIndex y) { return key(x) < key(y); });
    for (auto it = b; it != e; ++it) {
      Slot s{*it, static_cast<std::uint32_t>(fin_.size()), 0};
      for (KIndex f : k.fanins(*it)) fin_.push_back(f);
      s.end = static_cast<std::uint32_t>(fin_.size());
      order_.push_back(s);
      if (it + 1 == e || key(it[1]) != key(*it))
        runs_.push_back({k.op(*it), k.invert_mask(*it) != 0,
                         static_cast<std::uint32_t>(order_.size())});
    }
  }
  evaluate();
}

void PairSim::load(unsigned lane, KIndex site, int pin, Ternary stuck) {
  // Every mask below touches only lane's word w.
  const unsigned w = lane / kWordLanes, sh = shift(lane);
  const std::uint64_t rails = std::uint64_t{0xC} << sh;  // the faulty machine
  LaneFault& lf = faults_[lane];
  if (lf.site != kNoGate) {
    if (lf.pin < 0) {
      stem_mask_[lf.site][w] &= ~rails;
      stem_val_[lf.site][w] &= ~rails;
    } else {
      const std::uint32_t slot =
          k_->fanin_offset_data()[lf.site] + static_cast<std::uint32_t>(lf.pin);
      pin_mask_[slot][w] &= ~rails;
      pin_val_[slot][w] &= ~rails;
    }
    --injected_[lf.site];
    lf = LaneFault{};
  }
  for (LaneWords& p : pi_) p[w] &= ~(std::uint64_t{0xF} << sh);
  if (site == kNoGate) return;

  const std::uint64_t val = (both_machines(stuck) << sh) & rails;
  if (pin < 0) {
    stem_mask_[site][w] |= rails;
    stem_val_[site][w] |= val;
  } else {
    const std::uint32_t* off = k_->fanin_offset_data();
    if (off[site] + static_cast<std::uint32_t>(pin) >= off[site + 1])
      throw std::out_of_range("PairSim::load: fault pin out of range");
    const std::uint32_t slot = off[site] + static_cast<std::uint32_t>(pin);
    pin_mask_[slot][w] |= rails;
    pin_val_[slot][w] |= val;
  }
  ++injected_[site];
  lf = {site, pin};
}

void PairSim::set_input(unsigned lane, std::size_t input_idx, Ternary v) {
  const unsigned w = lane / kWordLanes, sh = shift(lane);
  LaneWords& p = pi_[input_idx];
  p[w] = (p[w] & ~(std::uint64_t{0xF} << sh)) | (both_machines(v) << sh);
}

template <MicroOp kOp, bool kInjected>
LaneWords PairSim::eval(const Slot& s) const {
  const auto in = [&](std::uint32_t i) {
    const LaneWords p = values_[fin_[i]];
    if constexpr (kInjected) {
      const std::uint32_t slot =
          k_->fanin_offset_data()[s.gate] + (i - s.begin);
      return (p & ~pin_mask_[slot]) | pin_val_[slot];
    }
    return p;
  };
  LaneWords r = in(s.begin);
  if constexpr (kOp == MicroOp::And || kOp == MicroOp::Or) {
    LaneWords any = r, all = r;
    for (std::uint32_t i = s.begin + 1; i < s.end; ++i) {
      const LaneWords p = in(i);
      any |= p;
      all &= p;
    }
    // AND: some input 0 -> 0, every input 1 -> 1; OR is the dual.
    r = kOp == MicroOp::And ? (any & kRail0) | (all & kRail1)
                            : (any & kRail1) | (all & kRail0);
  } else if constexpr (kOp == MicroOp::Xor) {
    for (std::uint32_t i = s.begin + 1; i < s.end; ++i) r = xor2(r, in(i));
  }
  return r;
}

template <MicroOp kOp>
void PairSim::eval_run(const Slot* s, const Slot* end, std::uint64_t inv) {
  for (; s != end; ++s) {
    const KIndex g = s->gate;
    LaneWords r = injected_[g] ? eval<kOp, true>(*s) : eval<kOp, false>(*s);
    r ^= inv & (r ^ swap_rails(r));  // inv all ones: r = swap_rails(r)
    if (injected_[g]) r = (r & ~stem_mask_[g]) | stem_val_[g];
    values_[g] = r;
  }
}

void PairSim::evaluate() {
  const std::span<const KIndex> ins = k_->inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const KIndex g = ins[i];
    values_[g] = (pi_[i] & ~stem_mask_[g]) | stem_val_[g];
  }
  for (const KIndex g : k_->constants()) {
    const std::uint64_t c = k_->type(g) == GateType::Const0 ? kRail0 : kRail1;
    values_[g] = (~stem_mask_[g] & c) | stem_val_[g];
  }
  // Runs follow level order: every fanin is final before its gate.
  const Slot* g = order_.data();
  for (const Run& run : runs_) {
    const Slot* end = order_.data() + run.end;
    const std::uint64_t inv = run.invert ? ~std::uint64_t{0} : 0;
    switch (run.op) {
      case MicroOp::And: eval_run<MicroOp::And>(g, end, inv); break;
      case MicroOp::Or: eval_run<MicroOp::Or>(g, end, inv); break;
      case MicroOp::Xor: eval_run<MicroOp::Xor>(g, end, inv); break;
      case MicroOp::Copy: eval_run<MicroOp::Copy>(g, end, inv); break;
    }
    g = end;
  }
}

}  // namespace bist
