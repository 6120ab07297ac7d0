#include "fault/redundancy.hpp"

#include <stdexcept>

namespace bist {

RedundancyCheck::RedundancyCheck(const SimKernel& k)
    : k_(&k),
      ipdom_(k.gate_count(), kNoGate),
      kind_(k.gate_count(), Kind::Source),
      ctrl_(k.gate_count(), 0),
      inv_(k.gate_count(), 0),
      val_(k.gate_count(), kX),
      derived_(k.gate_count(), 0),
      tfo_(k.gate_count(), 0) {
  const KIndex n = static_cast<KIndex>(k.gate_count());
  for (KIndex u = 0; u < n; ++u) {
    inv_[u] = k.invert_mask(u) & 1;
    if (k.fanins(u).empty()) continue;
    switch (k.op(u)) {
      case MicroOp::And: kind_[u] = Kind::AndOr; ctrl_[u] = 0; break;
      case MicroOp::Or: kind_[u] = Kind::AndOr; ctrl_[u] = 1; break;
      case MicroOp::Xor: kind_[u] = Kind::Xor; break;
      case MicroOp::Copy: kind_[u] = Kind::Copy; break;
    }
  }
  // Post-dominators over the graph plus a sink (index n) that every output
  // feeds.  Kernel order is level order, so a reverse sweep sees every
  // fanout's chain before its driver, and a gate's post-dominator has a
  // higher index: the meet of two chains advances the lower one.
  for (KIndex u = n; u-- > 0;) {
    if (k.is_output(u)) {
      ipdom_[u] = n;
      continue;
    }
    KIndex d = kNoGate;
    for (KIndex f : k.fanouts(u)) {
      if (ipdom_[f] == kNoGate) continue;  // f reaches no output
      KIndex a = f;
      while (d != kNoGate && a != d) {
        if (a < d) a = ipdom_[a];
        else d = ipdom_[d];
      }
      d = a;
    }
    ipdom_[u] = d;
  }
  // Constants hold their value under every pattern; the base state implies
  // them, and nothing but true values follows from true values.
  for (KIndex u : k.constants())
    assign(u, k.type(u) == GateType::Const1 ? 1 : 0);
  propagate(0);
  base_ = mark_ = trail_.size();
}

bool RedundancyCheck::untestable(const Fault& f) {
  const KIndex site = k_->index_of(f.gate);
  const auto in = k_->fanins(site);
  const bool branch = f.pin >= 0;
  if (branch && static_cast<std::size_t>(f.pin) >= in.size())
    throw std::out_of_range("RedundancyCheck: fault pin out of range");
  const KIndex stem = k_->stem_of(site);
  if (stem != stem_) enter(stem);
  if (stem_conflict_) return true;

  // Activation, the site gate's other pins for a branch fault, and the
  // fanout-free path from the site up to the stem.
  bool ok = assign(branch ? in[f.pin] : site, f.stuck ? 0 : 1);
  if (branch && kind_[site] == Kind::AndOr)
    for (std::size_t p = 0; ok && p < in.size(); ++p)
      if (p != static_cast<std::size_t>(f.pin))
        ok = assign(in[p], 1 - ctrl_[site]);
  for (KIndex g = site; ok && g != stem;) {
    const KIndex next = k_->fanouts(g)[0];
    ok = sensitize(next, g);
    g = next;
  }
  ok = ok && propagate(mark_);
  undo(mark_);
  return !ok;
}

void RedundancyCheck::enter(KIndex stem) {
  undo(base_);
  stem_ = stem;
  // Mark TFO(stem): its gates may carry the fault effect, so a
  // post-dominator's input there may take any value.
  ++stamp_;
  work_.assign(1, stem);
  tfo_[stem] = stamp_;
  while (!work_.empty()) {
    const KIndex u = work_.back();
    work_.pop_back();
    for (KIndex fo : k_->fanouts(u))
      if (tfo_[fo] != stamp_) {
        tfo_[fo] = stamp_;
        work_.push_back(fo);
      }
  }
  const KIndex sink = static_cast<KIndex>(k_->gate_count());
  bool ok = ipdom_[stem] != kNoGate;
  for (KIndex d = ipdom_[stem]; ok && d != sink; d = ipdom_[d]) {
    if (kind_[d] != Kind::AndOr) continue;
    for (KIndex w : k_->fanins(d))
      if (tfo_[w] != stamp_ && !(ok = assign(w, 1 - ctrl_[d]))) break;
  }
  ok = ok && propagate(base_);
  stem_conflict_ = !ok;
  mark_ = trail_.size();
}

bool RedundancyCheck::assign(KIndex u, std::uint8_t v) {
  if (val_[u] != kX) return val_[u] == v;
  val_[u] = v;
  trail_.push_back(u);
  return true;
}

bool RedundancyCheck::derive(KIndex g, std::uint8_t v) {
  if (val_[g] != kX) return val_[g] == v;
  val_[g] = v;
  derived_[g] = 1;
  trail_.push_back(g);
  return true;
}

bool RedundancyCheck::sensitize(KIndex g, KIndex on) {
  if (kind_[g] != Kind::AndOr) return true;
  for (KIndex w : k_->fanins(g))
    if (w != on && !assign(w, 1 - ctrl_[g])) return false;
  return true;
}

bool RedundancyCheck::imply(KIndex g) {
  const auto in = k_->fanins(g);
  switch (kind_[g]) {
    case Kind::Source:
      return true;
    case Kind::Copy:
      if (val_[in[0]] != kX) return derive(g, val_[in[0]] ^ inv_[g]);
      if (val_[g] != kX) return assign(in[0], val_[g] ^ inv_[g]);
      return true;
    case Kind::Xor: {
      std::uint8_t parity = inv_[g];
      unsigned open = 0;
      KIndex last = kNoGate;
      for (KIndex w : in) {
        if (val_[w] == kX) {
          ++open;
          last = w;
        } else {
          parity ^= val_[w];
        }
      }
      if (open == 0) return derive(g, parity);
      if (open == 1 && val_[g] != kX) return assign(last, val_[g] ^ parity);
      return true;
    }
    case Kind::AndOr: {
      const std::uint8_t c = ctrl_[g];
      unsigned open = 0;
      KIndex last = kNoGate;
      for (KIndex w : in) {
        if (val_[w] == c) return derive(g, c ^ inv_[g]);
        if (val_[w] == kX) {
          ++open;
          last = w;
        }
      }
      if (open == 0) return derive(g, (1 - c) ^ inv_[g]);
      if (val_[g] == kX) return true;
      // The reduction is known and no input is controlling yet: a
      // non-controlling result needs every input non-controlling, a
      // controlling one needs its last open input controlling.
      if ((val_[g] ^ inv_[g]) != c) {
        for (KIndex w : in)
          if (!assign(w, 1 - c)) return false;
        return true;
      }
      return open == 1 ? assign(last, c) : true;
    }
  }
  return true;
}

bool RedundancyCheck::propagate(std::size_t from) {
  // The trail past `from` is the queue: each newly assigned gate's own rule
  // (backward) and its fanouts' rules (forward, and backward through a
  // fanout whose inputs it completes).  A gate whose value its own inputs
  // derived has no rule left to fire.
  for (std::size_t i = from; i < trail_.size(); ++i) {
    const KIndex u = trail_[i];
    if (!derived_[u] && !imply(u)) return false;
    for (KIndex g : k_->fanouts(u))
      if (!derived_[g] && !imply(g)) return false;
  }
  return true;
}

void RedundancyCheck::undo(std::size_t mark) {
  while (trail_.size() > mark) {
    val_[trail_.back()] = kX;
    derived_[trail_.back()] = 0;
    trail_.pop_back();
  }
}

}  // namespace bist
