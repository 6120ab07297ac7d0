#include "sim/ternary_sim.hpp"

#include <stdexcept>

namespace bist {

namespace {

// Folds a gate's nin inputs, read one at a time through in(i): AND/OR stop
// at the first controlling value, XOR tracks parity.  Any fanin count.
template <class In>
Ternary fold_gate(GateType t, std::size_t nin, In in) {
  using T = Ternary;
  switch (t) {
    case GateType::Input: return T::VX;
    case GateType::Const0: return T::V0;
    case GateType::Const1: return T::V1;
    case GateType::Buf: return in(0);
    case GateType::Not: return t_not(in(0));
    case GateType::And:
    case GateType::Nand: {
      bool any_x = false;
      for (std::size_t i = 0; i < nin; ++i) {
        const T v = in(i);
        if (v == T::V0) return t == GateType::And ? T::V0 : T::V1;
        if (v == T::VX) any_x = true;
      }
      if (any_x) return T::VX;
      return t == GateType::And ? T::V1 : T::V0;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool any_x = false;
      for (std::size_t i = 0; i < nin; ++i) {
        const T v = in(i);
        if (v == T::V1) return t == GateType::Or ? T::V1 : T::V0;
        if (v == T::VX) any_x = true;
      }
      if (any_x) return T::VX;
      return t == GateType::Or ? T::V0 : T::V1;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bool parity = (t == GateType::Xnor);
      for (std::size_t i = 0; i < nin; ++i) {
        const T v = in(i);
        if (v == T::VX) return T::VX;
        if (v == T::V1) parity = !parity;
      }
      return parity ? T::V1 : T::V0;
    }
  }
  return T::VX;
}

}  // namespace

TernarySim::TernarySim(const SimKernel& k) : k_(&k) {
  const std::uint32_t* off = k_->fanin_offset_data();
  values_.assign(k_->gate_count(), Ternary::VX);
  assigned_.assign(k_->gate_count(), Ternary::VX);
  forced_.assign(k_->gate_count(), Ternary::VX);
  has_force_.assign(k_->gate_count(), 0);
  pin_forced_.assign(off[k_->gate_count()], Ternary::VX);
  has_pin_force_.assign(k_->gate_count(), 0);
  level_queues_.resize(k_->max_level() + 1);
  queued_.assign(k_->gate_count(), 0);
  full_eval();
}

void TernarySim::reset() {
  std::fill(values_.begin(), values_.end(), Ternary::VX);
  std::fill(assigned_.begin(), assigned_.end(), Ternary::VX);
  std::fill(forced_.begin(), forced_.end(), Ternary::VX);
  std::fill(has_force_.begin(), has_force_.end(), 0);
  std::fill(pin_forced_.begin(), pin_forced_.end(), Ternary::VX);
  std::fill(has_pin_force_.begin(), has_pin_force_.end(), 0);
  full_eval();
}

void TernarySim::force_at(KIndex k, Ternary v) {
  forced_[k] = v;
  has_force_[k] = 1;
  propagate_from(k);
}

void TernarySim::unforce_at(KIndex k) {
  has_force_[k] = 0;
  propagate_from(k);
}

void TernarySim::force_pin_at(KIndex k, unsigned pin, Ternary v) {
  const std::uint32_t* off = k_->fanin_offset_data();
  if (off[k] + pin >= off[k + 1])
    throw std::out_of_range("TernarySim::force_pin: pin out of range");
  pin_forced_[off[k] + pin] = v;
  has_pin_force_[k] = 1;
  propagate_from(k);
}

void TernarySim::unforce_pin_at(KIndex k, unsigned pin) {
  const std::uint32_t* off = k_->fanin_offset_data();
  if (off[k] + pin >= off[k + 1])
    throw std::out_of_range("TernarySim::unforce_pin: pin out of range");
  pin_forced_[off[k] + pin] = Ternary::VX;
  has_pin_force_[k] = 0;
  for (std::uint32_t i = off[k]; i < off[k + 1]; ++i)
    if (pin_forced_[i] != Ternary::VX) has_pin_force_[k] = 1;
  propagate_from(k);
}

Ternary TernarySim::compute(KIndex k) const {
  if (has_force_[k]) return forced_[k];
  if (k_->type(k) == GateType::Input) return assigned_[k];
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  const std::uint32_t b = off[k];
  const bool pinned = has_pin_force_[k];
  return fold_gate(k_->type(k), off[k + 1] - b, [&](std::size_t i) {
    if (pinned && pin_forced_[b + i] != Ternary::VX) return pin_forced_[b + i];
    return values_[fi[b + i]];
  });
}

void TernarySim::set_input(std::size_t input_idx, Ternary v) {
  const KIndex g = k_->inputs()[input_idx];
  assigned_[g] = v;
  propagate_from(g);
}

void TernarySim::propagate_from(KIndex root) {
  // Levelized event propagation: start with root's recomputation, then walk
  // strictly increasing levels so every gate is evaluated at most once.
  // compute() resolves forces and PI assignments uniformly, so an unchanged
  // root value means no fanout can change either.
  const Ternary nv = compute(root);
  if (values_[root] == nv) return;
  values_[root] = nv;

  unsigned lo_level = k_->max_level() + 1;
  for (KIndex f : k_->fanouts(root)) {
    if (!queued_[f]) {
      queued_[f] = 1;
      level_queues_[k_->level(f)].push_back(f);
      lo_level = std::min(lo_level, k_->level(f));
    }
  }
  for (unsigned lv = lo_level; lv <= k_->max_level(); ++lv) {
    auto& q = level_queues_[lv];
    for (std::size_t i = 0; i < q.size(); ++i) {
      const KIndex g = q[i];
      queued_[g] = 0;
      const Ternary v = compute(g);
      if (v == values_[g]) continue;
      values_[g] = v;
      for (KIndex f : k_->fanouts(g)) {
        if (!queued_[f]) {
          queued_[f] = 1;
          level_queues_[k_->level(f)].push_back(f);
        }
      }
    }
    q.clear();
  }
}

void TernarySim::full_eval() {
  for (KIndex g = 0; g < k_->gate_count(); ++g) values_[g] = compute(g);
}

}  // namespace bist
