#include "fault/podem.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/parallel.hpp"

namespace bist {

namespace {

// One machine's dual rails of a PairSim nibble ("is 0" low, "is 1" high):
// binary iff exactly one rail is set.
constexpr unsigned kRailOne = 2;
bool rails_x(unsigned rails) { return rails != 1 && rails != kRailOne; }

}  // namespace

PodemScan::PodemScan(const SimKernel& k)
    : k_(&k),
      cone_lanes_(k.gate_count(), LaneWords{}),
      marks_(k.gate_count(), Marks{}) {
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

void PodemScan::load(unsigned lane, KIndex site, int pin, Ternary stuck) {
  // The lane's bit of word w of each mask.
  const unsigned w = lane / PairSim::kWordLanes;
  const std::uint64_t bit = std::uint64_t{1} << PairSim::shift(lane);
  Lane& ln = lanes_[lane];
  for (KIndex u : ln.cone) cone_lanes_[u][w] &= ~bit;
  ln.cone.clear();
  ln.site = kNoGate;
  ln.branch_fault = false;
  if (site == kNoGate) return;
  if (pin >= 0 && static_cast<std::size_t>(pin) >= k_->fanins(site).size())
    throw std::out_of_range("PodemScan::load: fault pin out of range");

  ln.site = site;
  ln.branch_fault = pin >= 0;
  ln.line = ln.branch_fault ? k_->fanins(site)[pin] : site;
  ln.stuck = stuck;
  // The cone: the site and its transitive fanout, marked in cone_lanes_.
  ln.cone.push_back(site);
  cone_lanes_[site][w] |= bit;
  for (std::size_t c = 0; c < ln.cone.size(); ++c)
    for (KIndex fo : k_->fanouts(ln.cone[c]))
      if (!(cone_lanes_[fo][w] & bit)) {
        cone_lanes_[fo][w] |= bit;
        ln.cone.push_back(fo);
      }
}

void PodemScan::offer(const LaneWords& m, KIndex f) {
  const std::uint32_t dist = po_dist_[f];
  for (unsigned w = 0; w < PairSim::kLanes / PairSim::kWordLanes; ++w)
    for (std::uint64_t b = m[w]; b; b &= b - 1) {
      const unsigned l = w * PairSim::kWordLanes +
                         static_cast<unsigned>(std::countr_zero(b)) / 4;
      if (dist < frontier_dist_[l] ||
          (dist == frontier_dist_[l] && f < frontier_[l])) {
        frontier_[l] = f;
        frontier_dist_[l] = dist;
      }
    }
}

void PodemScan::scan(const PairSim& sim) {
  const LaneWords* val = sim.values().data();
  // Per lane: activated (the fault line holds !stuck) lanes look for a
  // D-frontier; a line at its stuck value is dead whatever the X-paths say.
  LaneWords activated{}, not_stuck{};
  KIndex lo = static_cast<KIndex>(k_->gate_count());
  for (unsigned l = 0; l < PairSim::kLanes; ++l) {
    frontier_[l] = kNoGate;
    frontier_dist_[l] = ~0u;
    const Lane& ln = lanes_[l];
    if (ln.site == kNoGate) continue;
    lo = std::min(lo, ln.site);
    const Ternary g = sim.good(l, ln.line);
    const unsigned w = l / PairSim::kWordLanes;
    const std::uint64_t bit = std::uint64_t{1} << PairSim::shift(l);
    if (g != ln.stuck) not_stuck[w] |= bit;
    if (g == t_not(ln.stuck)) activated[w] |= bit;
  }
  // One reverse walk over the union of the cones.  A gate of a lane's cone
  // has every fanout in that cone, at a higher index, so its fanouts' marks
  // are final when the walk gets to it.  Marks are only ever read on cone
  // gates, which the walk rewrites.
  //  - reach: X in some machine, and an output or a reaching fanout;
  //  - live: a difference with an output or a reaching fanout;
  //  - frontier: a fanout of a difference (a difference only ever sits in
  //    its lane's cone), X in some machine of an activated lane.
  LaneWords detected{}, live{};
  for (KIndex u = static_cast<KIndex>(k_->gate_count()); u-- > lo;) {
    const LaneWords cone = cone_lanes_[u];
    if (!PairSim::any(cone)) continue;
    const LaneWords x = PairSim::x_lanes(val[u]) & cone;
    const LaneWords d = PairSim::diff_lanes(val[u]) & cone;
    Marks& mu = marks_[u];
    mu.xa = x & activated;
    if (!PairSim::any(x | d)) {
      mu.reach = LaneWords{};
      continue;
    }
    const bool out_gate = k_->is_output(u);
    LaneWords out = out_gate ? ~LaneWords{} : LaneWords{};
    if (out_gate) detected |= d;
    if (!out_gate || PairSim::any(d))
      for (KIndex f : k_->fanouts(u)) {
        out |= marks_[f].reach;
        const LaneWords front = marks_[f].xa & d;
        if (PairSim::any(front)) offer(front, f);
      }
    mu.reach = x & out;
    live |= d & out;
  }
  // Per lane, after the walk: the effect of a branch fault enters its site
  // on the pin alone, and can still materialize at an unresolved site.
  for (unsigned l = 0; l < PairSim::kLanes; ++l) {
    const Lane& ln = lanes_[l];
    if (ln.site == kNoGate) continue;
    const unsigned w = l / PairSim::kWordLanes;
    const std::uint64_t bit = std::uint64_t{1} << PairSim::shift(l);
    const Marks& ms = marks_[ln.site];
    if (ln.branch_fault && (ms.xa[w] & bit)) {
      LaneWords m{};
      m[w] = bit;
      offer(m, ln.site);
    }
    if (ms.reach[w] & bit) live[w] |= bit;
  }
  detected_ = detected;
  live_ = live & not_stuck;
}

Podem::Podem(const SimKernel& k)
    : k_(&k),
      check_(k),
      rule_(check_.rules().data()),
      sim_(k),
      scan_(k),
      lanes_(PairSim::kLanes) {
  pi_ordinal_.assign(k.gate_count(), ~0u);
  for (std::uint32_t i = 0; i < k.inputs().size(); ++i)
    pi_ordinal_[k.inputs()[i]] = i;
}

bool Podem::objective(unsigned l, KIndex* gate, Ternary* v) const {
  // Phase 1: activate the fault — drive the faulted line to the opposite of
  // its stuck value.
  if (sim_.good(l, scan_.line(l)) == Ternary::VX) {
    *gate = scan_.line(l);
    *v = t_not(scan_.stuck(l));
    return true;
  }
  // Phase 2: advance the D-frontier.  The scan picked the frontier gate
  // closest to a primary output: the shortest propagation path needs the
  // fewest side-input justifications.
  const KIndex best = scan_.frontier(l);
  if (best == kNoGate) return false;
  const KIndex pick = pick_x_fanin(l, best, /*easiest=*/false);
  if (pick == kNoGate) return false;
  const GateRule r = rule_[best];
  *gate = pick;
  // Side inputs must take the non-controlling value; XOR-family gates
  // sensitize for any binary side value, so the choice there is free.
  *v = r.kind == GateRule::Kind::AndOr && r.ctrl == 0 ? Ternary::V1
                                                      : Ternary::V0;
  return true;
}

KIndex Podem::pick_x_fanin(unsigned l, KIndex g, bool easiest,
                           bool* parity) const {
  // Among the unresolved fanins of g prefer the good machine's X region
  // (faulty-only X happens just inside the fault cone), then use logic level
  // as a controllability proxy: a shallow X (easiest) when a single
  // controlling input decides the gate, a deep X (hardest) when every input
  // must be justified — failing on the hard one first prunes earlier.
  // The least key wins, the first fanin on a tie: a binary good machine
  // above its level, the level flipped for the hardest X.
  const std::uint32_t flip = easiest ? 0 : ~0u;
  std::uint64_t best = ~std::uint64_t{0};
  KIndex pick = kNoGate;
  bool ones = false, pick_one = false;  // parity of good-machine 1s
  for (KIndex w : k_->fanins(g)) {
    const unsigned p = sim_.pair(l, w);
    const bool gx = rails_x(p & 3);
    const bool one = (p & 3) == kRailOne;
    ones ^= one;
    const std::uint64_t key =
        std::uint64_t{!gx} << 32 | (k_->level(w) ^ flip);
    if ((gx || rails_x(p >> 2)) && key < best) {
      best = key;
      pick = w;
      pick_one = one;
    }
  }
  if (parity) {
    // Every occurrence of the pick leaves the side fanins; each counted as
    // a 1 iff the pick's good machine is 1.
    *parity = ones;
    if (pick_one)
      for (KIndex w : k_->fanins(g)) *parity ^= w == pick;
  }
  return pick;
}

void Podem::backtrace(unsigned l, KIndex g, Ternary v, std::uint32_t* pi_idx,
                      Ternary* pv) const {
  // Walk the objective backwards through the X region to a primary input.
  // Every non-input gate on the walk has an unresolved fanin (its own value
  // is unresolved in some machine and pin forces are binary), so the walk
  // always lands on an unassigned PI.
  while (rule_[g].kind != GateRule::Kind::Source) {
    const GateRule r = rule_[g];
    KIndex next;
    if (r.kind == GateRule::Kind::Xor) {
      // Parity-aware: the X input must supply v corrected for the inversion
      // and the parity already contributed by the binary fanins (unresolved
      // side fanins are optimistically counted as 0).
      bool side_ones;
      next = pick_x_fanin(l, g, /*easiest=*/true, &side_ones);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
      if (side_ones != (r.inv != 0)) v = t_not(v);
    } else {
      if (r.inv) v = t_not(v);
      // v == controlling: one input decides, take the easiest X; otherwise
      // every input needs the non-controlling value, take the hardest.
      const bool one_input_decides =
          r.kind == GateRule::Kind::AndOr &&
          v == (r.ctrl == 0 ? Ternary::V0 : Ternary::V1);
      next = pick_x_fanin(l, g, one_input_decides);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
    }
    g = next;
  }
  *pi_idx = pi_ordinal_[g];
  *pv = v;
}

void Podem::prove(std::span<const Fault> faults,
                  std::span<const std::uint32_t> group,
                  std::span<PodemResult> results, std::span<char> proven) {
  for (const std::uint32_t i : group)
    if (check_.untestable(faults[i])) {
      results[i] = PodemResult{};  // Redundant, no search
      proven[i] = 1;
    }
}

// Load the next unclaimed fault the pre-pass left open into lane l; the lane
// goes idle when none is left.
void Podem::claim(unsigned l, std::span<const Fault> faults,
                  std::span<const char> proven,
                  std::atomic<std::size_t>& next) {
  Lane& ln = lanes_[l];
  ln.slot = kIdle;
  std::size_t i;
  do i = next.fetch_add(1, std::memory_order_relaxed);
  while (i < faults.size() && proven[i]);
  if (i >= faults.size()) {
    sim_.load(l, kNoGate, -1, Ternary::VX);
    scan_.load(l, kNoGate, -1, Ternary::VX);
    return;
  }
  const Fault& f = faults[i];
  const KIndex site = k_->index_of(f.gate);
  const Ternary stuck = f.stuck ? Ternary::V1 : Ternary::V0;
  // Each drops the lane's previous fault; a bad pin throws, and reset()
  // unloads every lane before the next session.
  sim_.load(l, site, f.pin, stuck);
  scan_.load(l, site, f.pin, stuck);
  ln.frames.clear();
  ln.backtracks = 0;
  ln.decisions = 0;
  ln.slot = i;
}

bool Podem::step(unsigned l, PodemStatus* verdict) {
  // One search node, on the scan of the pass that implied the lane's last
  // decision.
  Lane& ln = lanes_[l];
  if (scan_.detected(l)) {
    *verdict = PodemStatus::Detected;
    return true;
  }
  KIndex og;
  Ternary ov;
  if (scan_.live(l) &&  // activation possible, some propagation path lives
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

void Podem::reset(const PodemOptions& opt) {
  limit_ = opt.backtrack_limit;
  for (unsigned l = 0; l < PairSim::kLanes; ++l) {
    lanes_[l].slot = kIdle;
    sim_.load(l, kNoGate, -1, Ternary::VX);
    scan_.load(l, kNoGate, -1, Ternary::VX);
  }
}

void Podem::run(std::span<const Fault> faults, std::atomic<std::size_t>& next,
                std::size_t until, std::span<PodemResult> results,
                std::span<const char> proven, const Deadline* deadline) {
  for (unsigned l = 0; l < PairSim::kLanes; ++l)
    if (lanes_[l].slot == kIdle) claim(l, faults, proven, next);
  // Idle lanes hold kIdle, which is never below `until`.
  const auto owed = [&] {
    for (const Lane& ln : lanes_)
      if (ln.slot < until) return true;
    return false;
  };
  while (owed()) {
    // Cooperative stop, polled once per step: a step is a full pass, a scan
    // and a node in every busy lane, far above the poll, so cancellation
    // latency is one node while an undeadlined search is untouched — the
    // poll reads a clock and a flag, never search state.
    if (deadline && deadline->should_stop()) {
      next.store(faults.size(), std::memory_order_relaxed);
      for (unsigned l = 0; l < PairSim::kLanes; ++l)
        if (lanes_[l].slot != kIdle) {
          results[lanes_[l].slot] = result(l, PodemStatus::Cancelled);
          lanes_[l].slot = kIdle;
        }
      return;
    }
    sim_.evaluate();
    scan_.scan(sim_);
    for (unsigned l = 0; l < PairSim::kLanes; ++l) {
      PodemStatus verdict;
      if (lanes_[l].slot == kIdle || !step(l, &verdict)) continue;
      results[lanes_[l].slot] = result(l, verdict);
      claim(l, faults, proven, next);
    }
  }
}

PodemResult Podem::generate(const Fault& f, const PodemOptions& opt,
                            const Deadline* deadline) {
  PodemResult r;
  if (deadline && deadline->should_stop()) {
    r.status = PodemStatus::Cancelled;
    return r;
  }
  reset(opt);
  const std::uint32_t only = 0;
  char proven = 0;
  prove({&f, 1}, {&only, 1}, {&r, 1}, {&proven, 1});
  std::atomic<std::size_t> next{0};
  run({&f, 1}, next, 1, {&r, 1}, {&proven, 1}, deadline);
  return r;
}

PodemBatch::PodemBatch(const SimKernel& k, unsigned threads)
    : k_(&k), pool_(std::make_unique<WorkerPool>(threads)) {
  engines_.reserve(pool_->workers());
  for (unsigned w = 0; w < pool_->workers(); ++w)
    engines_.push_back(std::make_unique<Podem>(k));
}

PodemBatch::~PodemBatch() = default;

unsigned PodemBatch::workers() const { return pool_->workers(); }

void PodemBatch::start(std::span<const Fault> faults, const PodemOptions& opt,
                       const Deadline* deadline) {
  faults_ = faults;
  deadline_ = deadline;
  next_.store(0, std::memory_order_relaxed);
  for (const std::unique_ptr<Podem>& e : engines_) e->reset(opt);
  results_.assign(faults.size(), PodemResult{});
  if (deadline) {
    // Pre-mark every slot Cancelled so faults never claimed once the
    // deadline fires read as "no verdict" rather than the default status.
    // Claimed faults overwrite their slot (with Cancelled if the deadline
    // fired mid-search); completed verdicts are bit-identical to an
    // undeadlined run by the engine's reuse contract.
    for (PodemResult& r : results_) r.status = PodemStatus::Cancelled;
  }
  // The pre-pass, one stem group at a time: fault indices ordered by
  // (stem, index), cut where the stem changes.
  std::vector<std::pair<KIndex, std::uint32_t>> keyed(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i)
    keyed[i] = {k_->stem_of(k_->index_of(faults[i].gate)), i};
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint32_t> order(faults.size());
  std::vector<std::size_t> begin;
  for (std::size_t j = 0; j < keyed.size(); ++j) {
    if (j == 0 || keyed[j].first != keyed[j - 1].first) begin.push_back(j);
    order[j] = keyed[j].second;
  }
  begin.push_back(order.size());
  proven_.assign(faults.size(), 0);
  parallel_for(*pool_, begin.size() - 1, 1,
               [&](unsigned wid, std::size_t g, std::size_t) {
                 if (deadline && deadline->should_stop()) return;
                 engines_[wid]->prove(
                     faults,
                     std::span(order).subspan(begin[g], begin[g + 1] - begin[g]),
                     results_, proven_);
               });
}

std::span<PodemResult> PodemBatch::decide(std::size_t n) {
  pool_->run([&](unsigned wid) {
    engines_[wid]->run(faults_, next_, n, results_, proven_, deadline_);
  });
  return results_;
}

std::vector<PodemResult> PodemBatch::generate(std::span<const Fault> faults,
                                              const PodemOptions& opt,
                                              const Deadline* deadline) {
  start(faults, opt, deadline);
  decide(faults.size());
  return std::move(results_);
}

}  // namespace bist
