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
    : k_(&k), sim_(k), lanes_(PairSim::kLanes) {
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

bool Podem::detected(unsigned l) const {
  for (KIndex o : k_->outputs())
    if (PairSim::is_diff(sim_.pair(l, o))) return true;
  return false;
}

bool Podem::x_path_ok(unsigned l) {
  // reach_[u]: u's value is still X in one machine and a path of such
  // unresolved gates leads from u to a primary output.  Ternary values are
  // monotone under further PI assignment (binary never reverts to X), so a
  // signal pair that is binary-equal is dead for good: if no difference and
  // no unresolved site signal can reach a PO through unresolved gates, no
  // completion of the current assignment detects the fault.
  const std::vector<KIndex>& cone = lanes_[l].cone;
  for (auto it = cone.rbegin(); it != cone.rend(); ++it) {
    const KIndex u = *it;
    bool r = false;
    if (PairSim::has_x(sim_.pair(l, u))) {
      if (k_->is_output(u)) {
        r = true;
      } else {
        for (KIndex f : k_->fanouts(u))  // fanouts of cone gates stay in cone
          if (reach_[f]) { r = true; break; }
      }
    }
    reach_[u] = r;
  }
  // The fault effect can still materialize at the site.
  if (reach_[lanes_[l].site]) return true;
  for (KIndex u : cone) {
    if (!PairSim::is_diff(sim_.pair(l, u))) continue;  // not a D signal
    if (k_->is_output(u)) return true;  // detected, caller handles first
    for (KIndex fo : k_->fanouts(u))
      if (reach_[fo]) return true;
  }
  return false;
}

bool Podem::objective(unsigned l, KIndex* gate, Ternary* v) const {
  const Lane& ln = lanes_[l];
  // Phase 1: activate the fault — drive the faulted line to the opposite of
  // its stuck value.
  if (sim_.good(l, ln.line) == Ternary::VX) {
    *gate = ln.line;
    *v = ln.stuck == Ternary::V0 ? Ternary::V1 : Ternary::V0;
    return true;
  }
  // Phase 2: advance the D-frontier — a gate whose output is unresolved in
  // some machine and that has a difference on a fanin (or is the site gate
  // of a branch fault, whose difference lives on the forced pin).  Among the
  // frontier gates take the one closest to a primary output: the shortest
  // propagation path needs the fewest side-input justifications.
  KIndex best = kNoGate;
  for (const KIndex u : ln.cone) {
    if (!PairSim::has_x(sim_.pair(l, u))) continue;
    bool frontier = ln.branch_fault && u == ln.site;
    if (!frontier) {
      for (KIndex w : k_->fanins(u))
        if (PairSim::is_diff(sim_.pair(l, w))) { frontier = true; break; }
    }
    if (!frontier) continue;
    if (best == kNoGate || po_dist_[u] < po_dist_[best]) best = u;
  }
  if (best == kNoGate) return false;
  const KIndex pick = pick_x_fanin(l, best, /*easiest=*/false);
  if (pick == kNoGate) return false;
  const int c = controlling_value(k_->type(best));
  *gate = pick;
  // Side inputs must take the non-controlling value; XOR-family gates
  // sensitize for any binary side value, so the choice there is free.
  *v = c < 0 ? Ternary::V0 : (c == 0 ? Ternary::V1 : Ternary::V0);
  return true;
}

KIndex Podem::pick_x_fanin(unsigned l, KIndex g, bool easiest) const {
  // Among the unresolved fanins of g prefer the good machine's X region
  // (faulty-only X happens just inside the fault cone), then use logic level
  // as a controllability proxy: a shallow X (easiest) when a single
  // controlling input decides the gate, a deep X (hardest) when every input
  // must be justified — failing on the hard one first prunes earlier.
  KIndex pick = kNoGate;
  bool pick_good = false;
  for (KIndex w : k_->fanins(g)) {
    const bool gx = sim_.good(l, w) == Ternary::VX;
    const bool fx = sim_.faulty(l, w) == Ternary::VX;
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

void Podem::backtrace(unsigned l, KIndex g, Ternary v, std::uint32_t* pi_idx,
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
      next = pick_x_fanin(l, g, /*easiest=*/true);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
      for (KIndex w : k_->fanins(g))
        if (w != next && sim_.good(l, w) == Ternary::V1) parity = !parity;
      if (parity) v = t_not(v);
    } else {
      if (inv) v = t_not(v);
      // v == controlling: one input decides, take the easiest X; otherwise
      // every input needs the non-controlling value, take the hardest.
      const bool one_input_decides =
          c >= 0 && v == (c == 0 ? Ternary::V0 : Ternary::V1);
      next = pick_x_fanin(l, g, one_input_decides);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
    }
    g = next;
  }
  *pi_idx = pi_ordinal_[g];
  *pv = v;
}

// Load the next unclaimed fault into lane l; false (lane idle) when none is
// left.
bool Podem::claim(unsigned l, std::span<const Fault> faults,
                  std::atomic<std::size_t>& next) {
  Lane& ln = lanes_[l];
  ln.slot = kIdle;
  const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
  if (i >= faults.size()) {
    sim_.load(l, kNoGate, -1, Ternary::VX);
    return false;
  }
  const Fault& f = faults[i];
  ln.site = k_->index_of(f.gate);
  ln.branch_fault = !f.is_output_fault();
  ln.stuck = f.stuck ? Ternary::V1 : Ternary::V0;
  // Drops the lane's previous fault and assignments; throws on a bad pin.
  sim_.load(l, ln.site, f.pin, ln.stuck);
  ln.line = ln.branch_fault ? k_->fanins(ln.site)[f.pin] : ln.site;
  ln.frames.clear();
  ln.backtracks = 0;
  ln.decisions = 0;

  ln.cone.clear();
  ln.cone.push_back(ln.site);
  in_cone_[ln.site] = 1;
  for (std::size_t c = 0; c < ln.cone.size(); ++c)
    for (KIndex fo : k_->fanouts(ln.cone[c]))
      if (!in_cone_[fo]) {
        in_cone_[fo] = 1;
        ln.cone.push_back(fo);
      }
  for (KIndex u : ln.cone) in_cone_[u] = 0;
  std::sort(ln.cone.begin(), ln.cone.end());  // ascending == level order
  ln.slot = i;
  return true;
}

bool Podem::step(unsigned l, PodemStatus* verdict) {
  // One search node, on the values of the pass that implied the lane's last
  // decision.
  Lane& ln = lanes_[l];
  if (detected(l)) {
    *verdict = PodemStatus::Detected;
    return true;
  }
  KIndex og;
  Ternary ov;
  if (sim_.good(l, ln.line) != ln.stuck &&  // activation still possible
      x_path_ok(l) &&                        // some propagation path lives
      objective(l, &og, &ov)) {
    std::uint32_t idx;
    Ternary v;
    backtrace(l, og, ov, &idx, &v);
    ++ln.decisions;
    ln.frames.push_back({idx, v, false});
    sim_.set_input(l, idx, v);
    return false;
  }
  // The node failed: unassign decisions back to the newest one whose second
  // branch is untried, count the backtrack, and take that branch.  Hitting
  // the limit abandons every open decision at once.
  while (!ln.frames.empty()) {
    Frame& fr = ln.frames.back();
    if (!fr.second) {
      if (++ln.backtracks > limit_) {
        *verdict = PodemStatus::Aborted;
        return true;
      }
      fr.second = true;
      sim_.set_input(l, fr.pi, t_not(fr.v));
      return false;
    }
    sim_.set_input(l, fr.pi, Ternary::VX);
    ln.frames.pop_back();
  }
  *verdict = PodemStatus::Redundant;
  return true;
}

PodemResult Podem::result(unsigned l, PodemStatus s) const {
  const Lane& ln = lanes_[l];
  PodemResult r;
  r.status = s;
  r.backtracks = ln.backtracks;
  r.decisions = ln.decisions;
  if (s == PodemStatus::Detected) {
    r.cube.resize(k_->inputs().size());
    for (std::size_t i = 0; i < r.cube.size(); ++i)
      r.cube[i] = sim_.good(l, k_->inputs()[i]);
  }
  return r;
}

void Podem::run(std::span<const Fault> faults, std::atomic<std::size_t>& next,
                std::span<PodemResult> results, const PodemOptions& opt) {
  limit_ = opt.backtrack_limit;
  unsigned busy = 0;
  for (unsigned l = 0; l < PairSim::kLanes; ++l) busy += claim(l, faults, next);
  while (busy) {
    // Cooperative stop, polled once per step: a step is a full pass plus a
    // node in every busy lane, far above the poll, so cancellation latency
    // is one node while an undeadlined search is untouched — the poll reads
    // a clock and a flag, never search state.
    if (opt.deadline && opt.deadline->should_stop()) {
      for (unsigned l = 0; l < PairSim::kLanes; ++l)
        if (lanes_[l].slot != kIdle) {
          results[lanes_[l].slot] = result(l, PodemStatus::Cancelled);
          lanes_[l].slot = kIdle;
        }
      return;
    }
    sim_.evaluate();
    for (unsigned l = 0; l < PairSim::kLanes; ++l) {
      PodemStatus verdict;
      if (lanes_[l].slot == kIdle || !step(l, &verdict)) continue;
      results[lanes_[l].slot] = result(l, verdict);
      if (!claim(l, faults, next)) --busy;
    }
  }
}

PodemResult Podem::generate(const Fault& f, const PodemOptions& opt) {
  PodemResult r;
  std::atomic<std::size_t> next{0};
  run({&f, 1}, next, {&r, 1}, opt);
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
    // Claimed faults overwrite their slot (with Cancelled if the deadline
    // fired mid-search); completed verdicts are bit-identical to an
    // undeadlined run by the engine's reuse contract.
    for (PodemResult& r : results) r.status = PodemStatus::Cancelled;
  }
  std::atomic<std::size_t> next{0};
  pool_->run([&](unsigned wid) {
    engines_[wid]->run(faults, next, results, opt);
  });
  return results;
}

}  // namespace bist
