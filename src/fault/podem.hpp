#pragma once
// PODEM (path-oriented decision making) deterministic test generation for
// single stuck-at faults — the generator behind the mixed scheme's top-off
// phase.  One PairSim over a shared SimKernel is the implication engine: it
// carries the good and the faulty machine in one byte per gate and evaluates
// both with the same bitwise ops, the fault injected into the faulty lane
// only (stem faults overwrite the site's lane, fanout-branch faults the
// forced pin's).  A signal whose (good, faulty) pair is (1,0) carries D,
// (0,1) carries D-bar; a test is found when some primary output pair
// differs on binary values.
//
// The search is the classic PODEM loop: pick an objective (activate the
// fault line, then advance a D-frontier gate), backtrace it through the
// X-valued region to a primary-input assignment, propagate it, and
// backtrack on failure.  Unassigning a PI pops the engine's trail back to
// the mark taken before the assignment, restoring every byte without
// re-simulating.  Pruning is conservative — a branch is cut only when the
// fault provably cannot be activated, or no X-path from a difference (or the
// still-unresolved fault site) reaches a primary output under the current
// assignment — so an exhausted search proves the fault redundant.  Searches
// that hit the backtrack limit are reported Aborted, separately from
// Redundant.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/pair_sim.hpp"
#include "util/deadline.hpp"

namespace bist {

class WorkerPool;

enum class PodemStatus : std::uint8_t {
  Detected,   ///< test cube found (and verified by the lock-step lanes)
  Redundant,  ///< search space exhausted: no test exists
  Aborted,    ///< backtrack limit hit before a verdict
  Cancelled,  ///< deadline/cancel fired mid-search: NO verdict — unlike
              ///< Aborted this says nothing about the fault and must never
              ///< be cached or counted as a search outcome
};

std::string_view podem_status_name(PodemStatus s);

struct PodemOptions {
  /// Backtracks (decision reversals) allowed per fault before aborting.
  /// Detection saturates at a few hundred on the surrogate family; proofs of
  /// redundancy through reconvergent XOR/multiplier logic are the budget
  /// eaters and abort instead (see BENCH JSON podem.aborted per circuit).
  std::uint32_t backtrack_limit = 1000;
  /// Cooperative deadline/cancel, polled once per decision inside the
  /// search (and per fault by PodemBatch before claiming the next one).  A
  /// search stopped mid-flight returns PodemStatus::Cancelled; verdicts
  /// reached before the stop are untouched and bit-identical to an
  /// undeadlined run.  nullptr = never stops.
  const Deadline* deadline = nullptr;
};

struct PodemResult {
  PodemStatus status = PodemStatus::Redundant;
  /// Per primary input (PI order), VX = don't care.  Valid iff Detected.
  std::vector<Ternary> cube;
  std::uint32_t backtracks = 0;
  std::uint64_t decisions = 0;
};

/// Reusable PODEM engine; generate() may be called for any number of faults.
/// The kernel must outlive the engine.
///
/// Reuse contract (what lets pooled workers hold one engine each): generate()
/// starts by resetting the pair simulator (one full evaluation that drops
/// the previous fault injection, every PI assignment and the trail, even
/// after a throw) and every per-fault field, so the result of a call depends
/// only on (kernel, fault, options) — never on the faults generated before
/// it.  The engine carries no RNG; the search is fully deterministic.
class Podem {
 public:
  explicit Podem(const SimKernel& k);

  PodemResult generate(const Fault& f, const PodemOptions& opt = {});

 private:
  bool detected() const;
  bool x_path_ok();
  bool objective(KIndex* gate, Ternary* v) const;
  KIndex pick_x_fanin(KIndex g, bool easiest) const;
  void backtrace(KIndex g, Ternary v, std::uint32_t* pi_idx, Ternary* pv) const;
  bool search();
  void build_cone(KIndex site);

  const SimKernel* k_;
  PairSim sim_;
  std::vector<std::uint32_t> pi_ordinal_;  // kernel idx -> PI index, ~0 if not PI
  std::vector<std::uint32_t> po_dist_;     // min fanout hops to a primary output

  // Per-fault state.
  KIndex site_ = 0;              // fault site gate
  KIndex line_ = 0;              // faulted line's driving signal
  bool branch_fault_ = false;
  Ternary stuck_t_ = Ternary::V0;
  std::vector<KIndex> cone_;     // transitive fanout of site_ incl site_, ascending
  std::vector<char> in_cone_;
  std::vector<char> reach_;      // x_path_ok scratch, valid on cone_ only
  std::uint32_t backtracks_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint32_t limit_ = 0;
  bool aborted_ = false;
  bool cancelled_ = false;
  const Deadline* deadline_ = nullptr;
};

/// Parallel PODEM: one persistent engine (its own PairSim) per worker of an
/// owned WorkerPool, reused across generate() calls — the construction cost
/// (pool threads + per-engine kernel-sized scratch) is paid once per batch
/// object, which is what a sweep over many candidate LFSR lengths needs.
///
/// generate() partitions the fault list dynamically at grain 1 (per-fault
/// cost is heavily skewed: an easy detection is microseconds while a
/// redundancy proof or abort burns the whole backtrack budget) and each
/// verdict lands in its fault's slot of the returned vector.  Combined with
/// the per-engine determinism contract of Podem::generate, the result is in
/// input order and bit-identical for every worker count.
class PodemBatch {
 public:
  /// `threads` resolved as in resolve_threads(); 1 spawns no threads and
  /// runs on the caller.  The kernel must outlive the batch.
  PodemBatch(const SimKernel& k, unsigned threads);
  ~PodemBatch();

  PodemBatch(const PodemBatch&) = delete;
  PodemBatch& operator=(const PodemBatch&) = delete;

  unsigned workers() const;

  /// One verdict per fault, input order; see the class comment.
  std::vector<PodemResult> generate(std::span<const Fault> faults,
                                    const PodemOptions& opt = {});

 private:
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<Podem>> engines_;  // one per worker
};

}  // namespace bist
