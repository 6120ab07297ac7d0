#include "fault/redundancy.hpp"

#include <algorithm>
#include <stdexcept>

namespace bist {

RedundancyCheck::RedundancyCheck(const SimKernel& k)
    : k_(&k),
      ipdom_(k.gate_count(), kNoGate),
      rule_(k.gate_count()),
      tally_(k.gate_count()),
      val_(k.gate_count(), kX),
      derived_(k.gate_count(), 0),
      tfo_(k.gate_count(), 0) {
  const KIndex n = static_cast<KIndex>(k.gate_count());
  for (KIndex u = 0; u < n; ++u) {
    GateRule& r = rule_[u];
    r.inv = k.invert_mask(u) & 1;
    tally_[u].open = static_cast<std::uint32_t>(k.fanins(u).size());
    if (k.fanins(u).empty()) continue;
    switch (k.op(u)) {
      case MicroOp::And: r.kind = Kind::AndOr; r.ctrl = 0; break;
      case MicroOp::Or: r.kind = Kind::AndOr; r.ctrl = 1; break;
      case MicroOp::Xor: r.kind = Kind::Xor; break;
      case MicroOp::Copy: r.kind = Kind::Copy; break;
    }
    tally_[u].counted = r.kind == Kind::AndOr ? r.ctrl
                        : r.kind == Kind::Xor ? 1
                                              : kX;
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
  propagate();
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
  if (branch && rule_[site].kind == Kind::AndOr)
    for (std::size_t p = 0; ok && p < in.size(); ++p)
      if (p != static_cast<std::size_t>(f.pin))
        ok = assign(in[p], 1 - rule_[site].ctrl);
  for (KIndex g = site; ok && g != stem;) {
    const KIndex next = k_->fanouts(g)[0];
    ok = sensitize(next, g);
    g = next;
  }
  ok = ok && propagate();
  undo(mark_);
  return !ok;
}

void RedundancyCheck::enter(KIndex stem) {
  undo(base_);
  stem_ = stem;
  skip_tfo_ = false;
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
    if (rule_[d].kind != Kind::AndOr) continue;
    for (KIndex w : k_->fanins(d))
      if (tfo_[w] != stamp_ && !(ok = assign(w, 1 - rule_[d].ctrl))) break;
  }
  ok = ok && propagate();
  stem_conflict_ = !ok;
  mark_ = trail_.size();
  // With no value in TFO(stem), a fault's implications reach it only
  // through the stem, forward: every gate there but the stem stays
  // unassigned, so its rule can only derive it from its inputs, and a
  // derived value neither conflicts (derive() runs on X gates alone) nor
  // implies anything back.  Forward implication inside TFO(stem) then
  // proves nothing, and the check skips it.
  skip_tfo_ = true;
  for (std::size_t i = 0; skip_tfo_ && i < mark_; ++i)
    skip_tfo_ = tfo_[trail_[i]] != stamp_;
}

void RedundancyCheck::set(KIndex u, std::uint8_t v) {
  val_[u] = v;
  trail_.push_back(u);
}

bool RedundancyCheck::assign(KIndex u, std::uint8_t v) {
  if (val_[u] != kX) return val_[u] == v;
  set(u, v);
  return true;
}

bool RedundancyCheck::derive(KIndex g, std::uint8_t v) {
  if (val_[g] != kX) return val_[g] == v;
  set(g, v);
  derived_[g] = 1;
  return true;
}

bool RedundancyCheck::sensitize(KIndex g, KIndex on) {
  if (rule_[g].kind != Kind::AndOr) return true;
  for (KIndex w : k_->fanins(g))
    if (w != on && !assign(w, 1 - rule_[g].ctrl)) return false;
  return true;
}

bool RedundancyCheck::imply(KIndex g) {
  const GateRule r = rule_[g];
  const Tally& t = tally_[g];
  // The tally's one open fanin takes v, unless it already has a value (the
  // rule fires again when that value reaches the tally).
  const auto last_open = [&](std::uint8_t v) {
    for (KIndex w : k_->fanins(g))
      if (val_[w] == kX) return assign(w, v);
    return true;
  };
  switch (r.kind) {
    case Kind::Source:
      return true;
    case Kind::Copy: {
      const KIndex in = k_->fanins(g)[0];
      if (val_[in] != kX) return derive(g, val_[in] ^ r.inv);
      if (val_[g] != kX) return assign(in, val_[g] ^ r.inv);
      return true;
    }
    case Kind::Xor: {
      const std::uint8_t parity = r.inv ^ (t.hits & 1);
      if (t.open == 0) return derive(g, parity);
      if (t.open == 1 && val_[g] != kX) return last_open(val_[g] ^ parity);
      return true;
    }
    case Kind::AndOr: {
      const std::uint8_t c = r.ctrl;
      if (t.hits > 0) return derive(g, c ^ r.inv);
      if (t.open == 0) return derive(g, (1 - c) ^ r.inv);
      if (val_[g] == kX) return true;
      // The reduction is known and no input is controlling yet: a
      // non-controlling result needs every input non-controlling, a
      // controlling one needs its last open input controlling.
      if ((val_[g] ^ r.inv) != c) {
        for (KIndex w : k_->fanins(g))
          if (!assign(w, 1 - c)) return false;
        return true;
      }
      return t.open == 1 ? last_open(c) : true;
    }
  }
  return true;
}

bool RedundancyCheck::propagate() {
  // The trail past applied_ is the queue: each newly assigned gate's own
  // rule (backward), then its value into its fanouts' tallies and their
  // rules (forward, and backward through a fanout whose inputs it
  // completes).  A gate whose value its own inputs derived has no rule left
  // to fire.  A tally counts only the values applied so far, so a rule may
  // fire before a fanin's value reaches it; that fanin's turn fires it
  // again, and the fixpoint is the same.
  while (applied_ < trail_.size()) {
    const KIndex u = trail_[applied_];
    if (!derived_[u] && !imply(u)) return false;
    const bool forward = !(skip_tfo_ && tfo_[u] == stamp_);
    const std::uint8_t v = val_[u];
    ++applied_;
    // u counts as applied, so every fanout's tally takes it, even past a
    // conflict.
    bool ok = true;
    for (KIndex g : k_->fanouts(u)) {
      Tally& t = tally_[g];
      --t.open;
      t.hits += v == t.counted;
      ok = ok && (!forward || derived_[g] || imply(g));
    }
    if (!ok) return false;
  }
  return true;
}

void RedundancyCheck::undo(std::size_t mark) {
  while (trail_.size() > mark) {
    const KIndex u = trail_.back();
    if (trail_.size() <= applied_) {
      const std::uint8_t v = val_[u];
      for (KIndex g : k_->fanouts(u)) {
        Tally& t = tally_[g];
        ++t.open;
        t.hits -= v == t.counted;
      }
    }
    val_[u] = kX;
    derived_[u] = 0;
    trail_.pop_back();
  }
  applied_ = std::min(applied_, mark);
}

}  // namespace bist
