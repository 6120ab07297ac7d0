#include "fault/podem.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace bist {

std::string_view podem_status_name(PodemStatus s) {
  switch (s) {
    case PodemStatus::Detected: return "detected";
    case PodemStatus::Redundant: return "redundant";
    case PodemStatus::Aborted: return "aborted";
    case PodemStatus::Cancelled: return "cancelled";
  }
  return "?";
}

Podem::Podem(const SimKernel& k)
    : k_(&k), sim_(k) {
  pi_ordinal_.assign(k.gate_count(), ~0u);
  for (std::uint32_t i = 0; i < k.inputs().size(); ++i)
    pi_ordinal_[k.inputs()[i]] = i;
  in_cone_.assign(k.gate_count(), 0);
  reach_.assign(k.gate_count(), 0);
  // Static distance-to-PO (min fanout hops), used to steer the D-frontier
  // towards the closest output.  Kernel order is level order, so a reverse
  // sweep sees every fanout before its driver.
  po_dist_.assign(k.gate_count(), ~0u);
  for (KIndex u = static_cast<KIndex>(k.gate_count()); u-- > 0;) {
    if (k.is_output(u)) { po_dist_[u] = 0; continue; }
    for (KIndex f : k.fanouts(u))
      if (po_dist_[f] != ~0u)
        po_dist_[u] = std::min(po_dist_[u], po_dist_[f] + 1);
  }
}

void Podem::build_cone(KIndex site) {
  for (KIndex u : cone_) in_cone_[u] = 0;
  cone_.clear();
  cone_.push_back(site);
  in_cone_[site] = 1;
  for (std::size_t i = 0; i < cone_.size(); ++i)
    for (KIndex f : k_->fanouts(cone_[i]))
      if (!in_cone_[f]) {
        in_cone_[f] = 1;
        cone_.push_back(f);
      }
  std::sort(cone_.begin(), cone_.end());  // ascending == level order
}

bool Podem::detected() const {
  for (KIndex o : k_->outputs())
    if (PairSim::is_diff(sim_.pair(o))) return true;
  return false;
}

bool Podem::x_path_ok() {
  // reach_[u]: u's value is still X in one machine and a path of such
  // unresolved gates leads from u to a primary output.  Ternary values are
  // monotone under further PI assignment (binary never reverts to X), so a
  // signal pair that is binary-equal is dead for good: if no difference and
  // no unresolved site signal can reach a PO through unresolved gates, no
  // completion of the current assignment detects the fault.
  for (auto it = cone_.rbegin(); it != cone_.rend(); ++it) {
    const KIndex u = *it;
    bool r = false;
    if (PairSim::has_x(sim_.pair(u))) {
      if (k_->is_output(u)) {
        r = true;
      } else {
        for (KIndex f : k_->fanouts(u))  // fanouts of cone gates stay in cone
          if (reach_[f]) { r = true; break; }
      }
    }
    reach_[u] = r;
  }
  if (reach_[site_]) return true;  // fault effect can still materialize here
  for (KIndex u : cone_) {
    if (!PairSim::is_diff(sim_.pair(u))) continue;  // not a D signal
    if (k_->is_output(u)) return true;  // detected, caller handles first
    for (KIndex fo : k_->fanouts(u))
      if (reach_[fo]) return true;
  }
  return false;
}

bool Podem::objective(KIndex* gate, Ternary* v) const {
  // Phase 1: activate the fault — drive the faulted line to the opposite of
  // its stuck value.
  if (sim_.good(line_) == Ternary::VX) {
    *gate = line_;
    *v = stuck_t_ == Ternary::V0 ? Ternary::V1 : Ternary::V0;
    return true;
  }
  // Phase 2: advance the D-frontier — a gate whose output is unresolved in
  // some machine and that has a difference on a fanin (or is the site gate
  // of a branch fault, whose difference lives on the forced pin).  Among the
  // frontier gates take the one closest to a primary output: the shortest
  // propagation path needs the fewest side-input justifications.
  KIndex best = kNoGate;
  for (const KIndex u : cone_) {
    if (!PairSim::has_x(sim_.pair(u))) continue;
    bool frontier = branch_fault_ && u == site_;
    if (!frontier) {
      for (KIndex w : k_->fanins(u))
        if (PairSim::is_diff(sim_.pair(w))) { frontier = true; break; }
    }
    if (!frontier) continue;
    if (best == kNoGate || po_dist_[u] < po_dist_[best]) best = u;
  }
  if (best == kNoGate) return false;
  const KIndex pick = pick_x_fanin(best, /*easiest=*/false);
  if (pick == kNoGate) return false;
  const int c = controlling_value(k_->type(best));
  *gate = pick;
  // Side inputs must take the non-controlling value; XOR-family gates
  // sensitize for any binary side value, so the choice there is free.
  *v = c < 0 ? Ternary::V0 : (c == 0 ? Ternary::V1 : Ternary::V0);
  return true;
}

KIndex Podem::pick_x_fanin(KIndex g, bool easiest) const {
  // Among the unresolved fanins of g prefer the good machine's X region
  // (faulty-only X happens just inside the fault cone), then use logic level
  // as a controllability proxy: a shallow X (easiest) when a single
  // controlling input decides the gate, a deep X (hardest) when every input
  // must be justified — failing on the hard one first prunes earlier.
  KIndex pick = kNoGate;
  bool pick_good = false;
  for (KIndex w : k_->fanins(g)) {
    const bool gx = sim_.good(w) == Ternary::VX;
    const bool fx = sim_.faulty(w) == Ternary::VX;
    if (!gx && !fx) continue;
    if (pick == kNoGate || (gx && !pick_good) ||
        (gx == pick_good &&
         (easiest ? k_->level(w) < k_->level(pick)
                  : k_->level(w) > k_->level(pick)))) {
      pick = w;
      pick_good = gx;
    }
  }
  return pick;
}

void Podem::backtrace(KIndex g, Ternary v, std::uint32_t* pi_idx,
                      Ternary* pv) const {
  // Walk the objective backwards through the X region to a primary input.
  // Every non-input gate on the walk has an unresolved fanin (its own value
  // is unresolved in some machine and pin forces are binary), so the walk
  // always lands on an unassigned PI.
  while (k_->type(g) != GateType::Input) {
    const GateType t = k_->type(g);
    const bool inv = is_inverting(t);
    const int c = controlling_value(t);
    KIndex next;
    if (t == GateType::Xor || t == GateType::Xnor) {
      // Parity-aware: the X input must supply v corrected for the inversion
      // and the parity already contributed by the binary fanins (unresolved
      // side fanins are optimistically counted as 0).
      bool parity = inv;
      next = pick_x_fanin(g, /*easiest=*/true);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
      for (KIndex w : k_->fanins(g))
        if (w != next && sim_.good(w) == Ternary::V1) parity = !parity;
      if (parity) v = t_not(v);
    } else {
      if (inv) v = t_not(v);
      // v == controlling: one input decides, take the easiest X; otherwise
      // every input needs the non-controlling value, take the hardest.
      const bool one_input_decides =
          c >= 0 && v == (c == 0 ? Ternary::V0 : Ternary::V1);
      next = pick_x_fanin(g, one_input_decides);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
    }
    g = next;
  }
  *pi_idx = pi_ordinal_[g];
  *pv = v;
}

bool Podem::search() {
  // Cooperative stop, polled once per search node (== once per decision
  // plus the root): a node costs an event-driven implication pass plus the
  // x_path_ok/objective cone scans, far above the poll, so cancellation
  // latency is one node while an undeadlined search is untouched — the poll
  // reads a clock and a flag, never search state.  Reuses the abort
  // unwinding (no second branches), so the whole stack collapses
  // immediately.
  if (deadline_ && deadline_->should_stop()) {
    cancelled_ = true;
    aborted_ = true;
    return false;
  }
  if (detected()) return true;
  if (sim_.good(line_) == stuck_t_) return false;  // activation impossible
  if (!x_path_ok()) return false;  // every propagation path is dead
  KIndex og;
  Ternary ov;
  if (!objective(&og, &ov)) return false;
  std::uint32_t idx;
  Ternary v;
  backtrace(og, ov, &idx, &v);

  // Unassigning the PI pops the trail back to the mark: the state before
  // the decision is restored byte for byte without re-simulating X.
  ++decisions_;
  const std::size_t mark = sim_.mark();
  sim_.assign(idx, v);
  if (search()) return true;
  sim_.undo(mark);
  if (!aborted_ && ++backtracks_ > limit_) aborted_ = true;
  if (aborted_) return false;
  sim_.assign(idx, t_not(v));
  if (search()) return true;
  sim_.undo(mark);
  return false;
}

PodemResult Podem::generate(const Fault& f, const PodemOptions& opt) {
  site_ = k_->index_of(f.gate);
  branch_fault_ = !f.is_output_fault();
  stuck_t_ = f.stuck ? Ternary::V1 : Ternary::V0;
  // Drops the previous fault, assignments and trail; throws on a bad pin.
  sim_.reset(site_, f.pin, stuck_t_);
  line_ = branch_fault_ ? k_->fanins(site_)[f.pin] : site_;
  build_cone(site_);

  backtracks_ = 0;
  decisions_ = 0;
  limit_ = opt.backtrack_limit;
  aborted_ = false;
  cancelled_ = false;
  deadline_ = opt.deadline;
  const bool found = search();

  PodemResult r;
  r.backtracks = backtracks_;
  r.decisions = decisions_;
  if (found) {
    r.status = PodemStatus::Detected;
    r.cube.resize(k_->inputs().size());
    for (std::size_t i = 0; i < r.cube.size(); ++i)
      r.cube[i] = sim_.good(k_->inputs()[i]);
  } else if (cancelled_) {
    r.status = PodemStatus::Cancelled;  // no verdict: the search was cut off
  } else {
    r.status = aborted_ ? PodemStatus::Aborted : PodemStatus::Redundant;
  }
  return r;
}

PodemBatch::PodemBatch(const SimKernel& k, unsigned threads)
    : pool_(std::make_unique<WorkerPool>(threads)) {
  engines_.reserve(pool_->workers());
  for (unsigned w = 0; w < pool_->workers(); ++w)
    engines_.push_back(std::make_unique<Podem>(k));
}

PodemBatch::~PodemBatch() = default;

unsigned PodemBatch::workers() const { return pool_->workers(); }

std::vector<PodemResult> PodemBatch::generate(std::span<const Fault> faults,
                                              const PodemOptions& opt) {
  std::vector<PodemResult> results(faults.size());
  if (opt.deadline) {
    // Pre-mark every slot Cancelled so faults never claimed once the
    // deadline fires read as "no verdict" rather than the default status.
    // Claimed faults overwrite their slot (possibly also with Cancelled, if
    // the deadline fired mid-search); completed verdicts are bit-identical
    // to an undeadlined run by the engine's determinism contract.
    for (PodemResult& r : results) r.status = PodemStatus::Cancelled;
  }
  parallel_for(*pool_, faults.size(), 1,
               [&](unsigned wid, std::size_t b, std::size_t e) {
                 if (opt.deadline && opt.deadline->should_stop()) return;
                 for (std::size_t i = b; i < e; ++i)
                   results[i] = engines_[wid]->generate(faults[i], opt);
               });
  return results;
}

}  // namespace bist
