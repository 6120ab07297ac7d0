#pragma once
// PODEM (path-oriented decision making) deterministic test generation for
// single stuck-at faults — the generator behind the mixed scheme's top-off
// phase.  Searches run lane-parallel: one PairSim over a shared SimKernel
// carries PairSim::kLanes searches at once, each lane with its own fault
// (injected into the lane's faulty machine only) and its own PI assignment,
// and one levelized pass implies every lane's last decision together.  A
// signal whose (good, faulty) pair is (1,0) carries D, (0,1) carries D-bar;
// a test is found when some primary output pair differs on binary values.
//
// Each lane runs the classic PODEM loop: pick an objective (activate the
// fault line, then advance a D-frontier gate), backtrace it through the
// X-valued region to a primary-input assignment, imply it, and backtrack on
// failure.  The recursion is an explicit per-lane stack of decision frames
// (PI, value, second branch tried), so a search can stop after any node and
// resume after the next pass — or in a later Podem::run() of the same
// session.  A step is one pass over all lanes, then one
// PodemScan of its values — the detected, X-path and D-frontier checks of
// every lane at once, as lane masks over one reverse walk of the kernel —
// and then one node in every busy lane: a backtrace from the next
// objective, or a backtrack.  Unassigning a PI writes X back to it; the
// pass restores everything downstream.  Pruning is conservative — a branch
// is cut only when the fault provably cannot be activated, or no X-path
// from a difference (or the still-unresolved fault site) reaches a primary
// output under the current assignment — so an exhausted search proves the
// fault redundant.  Searches that hit the backtrack limit are reported
// Aborted, separately from Redundant.
//
// Before any search, a RedundancyCheck (fault/redundancy.hpp) tries to prove
// each fault untestable by implication alone; a proven fault is never
// searched and reads Redundant with 0 backtracks and 0 decisions.  So
// Redundant is either that implication proof or an exhausted search.  The
// check's GateRule table (kind, controlling value, inversion per gate,
// lowered from the kernel's micro-ops) is the one the objective and the
// backtrace read too; a backtrace level reads each X-candidate fanin's
// lane nibble once.
//
// The frame stack is the depth-first recursion unrolled, and the scan
// computes exactly the per-lane checks of a one-search-at-a-time PODEM, so
// every lane takes exactly that search's decisions: a lane's values depend
// only on its own fault and assignment, never on its neighbours, and lanes
// are a pure throughput device.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "fault/redundancy.hpp"
#include "sim/kernel.hpp"
#include "sim/pair_sim.hpp"
#include "util/deadline.hpp"

namespace bist {

class WorkerPool;

enum class PodemStatus : std::uint8_t {
  Detected,   ///< test cube found (and verified by the lock-step machines)
  Redundant,  ///< implication conflict or search space exhausted: no test
  Aborted,    ///< backtrack limit hit before a verdict
  Cancelled,  ///< deadline/cancel fired mid-search: NO verdict — unlike
              ///< Aborted this says nothing about the fault and must never
              ///< be cached or counted as a search outcome
};

struct PodemOptions {
  /// Backtracks (decision reversals) allowed per fault before aborting.
  /// Detection saturates at a few hundred on the surrogate family; proofs of
  /// redundancy through reconvergent XOR/multiplier logic are the budget
  /// eaters and abort instead (see BENCH JSON podem.aborted per circuit).
  std::uint32_t backtrack_limit = 1000;
};

struct PodemResult {
  PodemStatus status = PodemStatus::Redundant;
  /// Per primary input (PI order), VX = don't care.  Valid iff Detected.
  std::vector<Ternary> cube;
  std::uint32_t backtracks = 0;
  std::uint64_t decisions = 0;
};

/// The per-pass checks of every PODEM lane at once.  After a PairSim pass,
/// scan() reads its value words and answers, for each lane with a fault:
///  - detected: some primary output carries D or D-bar;
///  - live: the fault line does not hold its stuck value, and a difference
///    (or the still-unresolved fault site) reaches a primary output along
///    gates still X in some machine — else no completion of the assignment
///    detects the fault (values are monotone: binary never reverts to X);
///  - frontier: once the fault line holds the opposite of its stuck value,
///    the D-frontier gate (X in some machine, with a difference on a fanin,
///    or the site gate of a branch fault) closest to a primary output,
///    lowest kernel index on ties; kNoGate otherwise.
/// All three come from lane masks (lane L is the low bit of its PairSim
/// nibble, bit 4(L%16) of word L/16) over one reverse walk of kernel order,
/// which stops at the lowest fault site and reads each cone gate's own value
/// only: per gate, the lanes whose fault cone holds it, the lanes with an X
/// or a difference there, the lanes an X-path leads from it to an output,
/// and the lanes where it is X and the fault activated.  A gate with a
/// difference offers each fanout that is X in an activated lane as that
/// lane's frontier candidate while the walk ORs its fanouts' X-paths; a
/// branch fault's site, whose difference lives on the pin alone, is offered
/// per lane after the walk.  A gate may be offered more than once, so the
/// pick is the lexicographic least (po_dist, kernel index).
class PodemScan {
 public:
  /// The kernel must outlive the scan.  Every lane starts without a fault.
  explicit PodemScan(const SimKernel& k);

  /// Lane `lane` now targets the fault at kernel gate `site` (pin < 0: its
  /// output; otherwise the branch into fanin `pin`) stuck at `stuck`, as
  /// PairSim::load; site == kNoGate: no fault.  Drops the lane's previous
  /// fault first.  Throws std::out_of_range on a bad pin, leaving the lane
  /// without a fault.
  void load(unsigned lane, KIndex site, int pin, Ternary stuck);

  /// Scan the values of `sim`'s last pass (its lanes carrying the faults
  /// loaded here).
  void scan(const PairSim& sim);

  bool detected(unsigned lane) const {
    return PairSim::lane_in(detected_, lane);
  }
  bool live(unsigned lane) const { return PairSim::lane_in(live_, lane); }
  KIndex frontier(unsigned lane) const { return frontier_[lane]; }
  /// Gate u lies in the lane's fault cone (the site and its transitive
  /// fanout); never true for a lane without a fault.
  bool in_cone(unsigned lane, KIndex u) const {
    return PairSim::lane_in(cone_lanes_[u], lane);
  }
  /// The faulted line's driving signal and its stuck value.
  KIndex line(unsigned lane) const { return lanes_[lane].line; }
  Ternary stuck(unsigned lane) const { return lanes_[lane].stuck; }

 private:
  struct Lane {
    KIndex site = kNoGate;     // fault site gate, kNoGate: no fault
    KIndex line = kNoGate;     // faulted line's driving signal
    bool branch_fault = false;
    Ternary stuck = Ternary::VX;
    std::vector<KIndex> cone;  // transitive fanout of site incl site
  };

  // Lanes of `m` take gate f as their frontier unless they hold a gate
  // nearer an output, or as near and lower.
  void offer(const LaneWords& m, KIndex f);

  const SimKernel* k_;
  // What a scan leaves on a cone gate: the lanes with an X-path from it to
  // an output, and the activated lanes where it is X.  Read together off
  // each fanout.
  struct Marks {
    LaneWords reach, xa;
  };

  // Per gate: min fanout hops to an output, lane masks of the lanes whose
  // cone holds it, and its marks (valid on cone gates after a scan).
  std::vector<std::uint32_t> po_dist_;
  std::vector<LaneWords> cone_lanes_;
  std::vector<Marks> marks_;
  std::array<Lane, PairSim::kLanes> lanes_;
  std::array<KIndex, PairSim::kLanes> frontier_;
  std::array<std::uint32_t, PairSim::kLanes> frontier_dist_;
  LaneWords detected_{}, live_{};
};

/// Reusable lane-parallel PODEM engine.  The kernel must outlive it.
///
/// Reuse contract (what lets pooled workers hold one engine each and lanes
/// be refilled mid-run): loading a fault into a lane replaces the lane's
/// previous fault, unassigns every one of its PIs and resets every per-lane
/// search field, so a verdict depends only on (kernel, fault, options) —
/// never on the faults searched before it, beside it, in which lane, or
/// across how many run() calls its search was spread.  reset() starts a
/// session: every lane idle, even after a throw or a cancellation.  Within
/// a session, run() returns with searches still in flight (lanes that ran
/// ahead of its `until`) and the next run() resumes them where they
/// stopped.  The engine carries no RNG; the search is fully deterministic.
///
/// Every entry point takes an optional cooperative deadline/cancel
/// (nullptr = never stops), polled once per stem group of the implication
/// pre-pass and once per step of the engine (one pass, one scan and one
/// node in every busy lane).  When it fires, every search in flight
/// returns PodemStatus::Cancelled and no further fault is started;
/// verdicts reached before the stop are untouched and bit-identical to an
/// undeadlined run.
class Podem {
 public:
  explicit Podem(const SimKernel& k);

  /// One fault: a batch of one.
  PodemResult generate(const Fault& f, const PodemOptions& opt = {},
                       const Deadline* deadline = nullptr);

  /// The implication pre-pass over faults[i] for each i in `group` (faults
  /// that share a stem check fastest back to back): each fault the check
  /// proves untestable gets a Redundant result (0 backtracks, 0 decisions)
  /// in results[i] and proven[i] = 1.  Throws std::out_of_range on a fault
  /// with a bad pin.
  void prove(std::span<const Fault> faults,
             std::span<const std::uint32_t> group,
             std::span<PodemResult> results, std::span<char> proven);

  /// Start a session under opt: drop every lane's search.
  void reset(const PodemOptions& opt);

  /// Search until no lane of this engine holds a fault index below `until`:
  /// each free lane claims the next fault index from `next` (which several
  /// engines may share) that `proven` does not flag — past `until` too, so
  /// no lane idles while another finishes — and writes the verdict to that
  /// slot of `results`.  A lane still searching a fault at or past `until`
  /// keeps its search for the next run() of the session.  When the deadline
  /// fires, every claimed search still in flight gets a Cancelled result
  /// and `next` is run out, so no further fault is claimed.  Throws
  /// std::out_of_range on a fault with a bad pin.
  void run(std::span<const Fault> faults, std::atomic<std::size_t>& next,
           std::size_t until, std::span<PodemResult> results,
           std::span<const char> proven, const Deadline* deadline = nullptr);

 private:
  static constexpr std::size_t kIdle = ~std::size_t{0};

  // One decision: `pi` assigned `v`; `second` once it was flipped to !v.
  struct Frame {
    std::uint32_t pi;
    Ternary v;
    bool second;
  };
  // One search in flight; its fault lives in the lane of sim_ and scan_.
  struct Lane {
    std::size_t slot = kIdle;  // index of its fault in the running batch
    std::vector<Frame> frames;
    std::uint32_t backtracks = 0;
    std::uint64_t decisions = 0;
  };

  void claim(unsigned l, std::span<const Fault> faults,
             std::span<const char> proven, std::atomic<std::size_t>& next);
  bool step(unsigned l, PodemStatus* verdict);
  PodemResult result(unsigned l, PodemStatus s) const;
  bool objective(unsigned l, KIndex* gate, Ternary* v) const;
  /// The X fanin of g to justify next; with `parity`, also the parity of
  /// the good-machine 1s on g's other fanins.
  KIndex pick_x_fanin(unsigned l, KIndex g, bool easiest,
                      bool* parity = nullptr) const;
  void backtrace(unsigned l, KIndex g, Ternary v, std::uint32_t* pi_idx,
                 Ternary* pv) const;

  const SimKernel* k_;
  RedundancyCheck check_;
  const GateRule* rule_;  // check_'s table
  PairSim sim_;
  PodemScan scan_;
  std::vector<std::uint32_t> pi_ordinal_;  // kernel idx -> PI index, ~0 if not PI
  std::vector<Lane> lanes_;                // PairSim::kLanes
  std::uint32_t limit_ = 0;
};

/// Parallel PODEM: one persistent lane-parallel engine per worker of an
/// owned WorkerPool, reused across sessions — the construction cost (pool
/// threads + per-engine kernel-sized scratch) is paid once per batch object.
///
/// A session is resumable, which is what a sweep over many candidate LFSR
/// lengths needs: start() runs the implication pre-pass over the whole
/// fault list, handing the faults out by stem group, and each decide(n)
/// then steps the engines until slots [0, n) all hold verdicts.  The
/// searches are handed out one fault at a time from a shared cursor: a lane
/// that finishes claims the next unclaimed fault, whichever worker it
/// belongs to (per-fault cost is heavily skewed: an easy detection takes a
/// few nodes while a redundancy proof or abort burns the whole backtrack
/// budget), and it claims past n while other lanes finish theirs.  Such a
/// lane keeps its search when decide() returns, and the next decide()
/// resumes it, so lanes idle only at the end of the session, not at each
/// boundary.  Each verdict lands in its fault's slot.  Combined with the
/// engine's reuse contract, the results are in input order and
/// bit-identical for every worker count and every sequence of decide()
/// boundaries.
class PodemBatch {
 public:
  /// `threads` resolved as in resolve_threads(); 1 spawns no threads and
  /// runs on the caller.  The kernel must outlive the batch.
  PodemBatch(const SimKernel& k, unsigned threads);
  ~PodemBatch();

  PodemBatch(const PodemBatch&) = delete;
  PodemBatch& operator=(const PodemBatch&) = delete;

  unsigned workers() const;

  /// Begin a session over `faults`, which (like `deadline`) must outlive
  /// it: reset every engine and run the implication pre-pass over the
  /// whole list (polling the deadline once per stem group).  Under a
  /// deadline every slot starts out Cancelled.  Throws std::out_of_range on
  /// a fault with a bad pin.
  void start(std::span<const Fault> faults, const PodemOptions& opt = {},
             const Deadline* deadline = nullptr);

  /// Step the engines until slots [0, n) all hold verdicts, then return
  /// every slot of the session (a view valid until the next start() or
  /// generate()); slots at or past n may hold verdicts too.
  /// Under the session's deadline (polled as in Podem), a search cut in
  /// flight and every fault never reached read Cancelled, and once it has
  /// fired no later decide() starts a search.  Verdicts reached before the
  /// stop are bit-identical to an undeadlined session.
  std::span<PodemResult> decide(std::size_t n);

  /// start() plus decide(faults.size()): one verdict per fault, input
  /// order.  Ends the session.
  std::vector<PodemResult> generate(std::span<const Fault> faults,
                                    const PodemOptions& opt = {},
                                    const Deadline* deadline = nullptr);

 private:
  const SimKernel* k_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<Podem>> engines_;  // one per worker
  // The session.
  std::span<const Fault> faults_;
  const Deadline* deadline_ = nullptr;
  std::vector<PodemResult> results_;
  std::vector<char> proven_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace bist
