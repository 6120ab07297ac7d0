#pragma once
// PPSFP (parallel-pattern single-fault propagation) stuck-at fault simulator,
// rebuilt as a parallel FFR-aware engine.
//
// For each pattern group the good machine is evaluated once on the
// SimKernel; then fault effects are propagated in two stages that exploit
// the kernel's fanout-free-region decomposition:
//
//   local stage   every live fault is walked from its site to its FFR stem
//                 root — a unique single-fanout path, one gate re-evaluation
//                 per step — yielding the *stem word*: the pattern lanes on
//                 which the fault flips the stem output.  Faults whose
//                 effect dies inside the region never touch the global event
//                 queues.
//   stem stage    per stem with any live activated fault, ONE event-driven
//                 cone propagation is run for the OR of its faults' stem
//                 words.  Lanes are independent in 2-valued simulation, so
//                 the resulting observability word D (lanes where a stem
//                 flip reaches a primary output) is exact per lane, and each
//                 fault's detection word is just stem_word & D.  All faults
//                 sharing a stem share that one propagation.
//
// The stem groups are split across a persistent WorkerPool: workers pull
// stem groups off an atomic cursor, each with its own propagation scratch,
// sharing the read-only good-machine values.  Per-fault results land in
// disjoint slots and are reduced serially in fixed fault order afterwards,
// so first-detection indices, detected counts, and eval counters are
// bit-identical for every thread count.
//
// Pattern words are SimWord<W> (W x 64 lanes, W = 1 or 4): the engine
// consumes W consecutive 64-lane PatternBlocks per pass, keeping the narrow
// block ABI while letting the 256-bit path auto-vectorize.  Detection
// results are lane-exact, hence identical across widths too.
//
// Coverage is reported under both accounting conventions: the collapsed
// convention (each representative counts as one fault) and the
// total-enumerated convention (each representative weighted by its
// equivalence-class size, denominator = uncollapsed fault count).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"
#include "util/deadline.hpp"

namespace bist {

class WorkerPool;

struct FaultSimOptions {
  /// Worker count for the stem-group partition; 0 = hardware_concurrency.
  unsigned threads = 1;
  /// Pattern word width in 64-lane units (1 or kMaxWordWidth); unsupported
  /// widths clamp to 1.
  unsigned word_width = 1;
};

struct FaultSimResult {
  std::size_t total_faults = 0;  ///< uncollapsed fault list size
  std::size_t sim_faults = 0;    ///< simulated (collapsed) fault list size
  std::size_t detected = 0;
  std::uint64_t detected_weight = 0;  ///< class-size-weighted detected count
  std::uint64_t total_weight = 0;     ///< sum of class sizes (== total_faults
                                      ///< when the list came from collapsing)
  std::size_t patterns = 0;  ///< patterns actually simulated (may be short
                             ///< of the request when status is not Ok)
  /// Ok for a full run; DeadlineExceeded/Cancelled when a cooperative check
  /// stopped the pass early, in which case every field describes the
  /// `patterns`-long prefix that DID run, bit-identically.
  StageStatus status;
  unsigned threads = 1;     ///< resolved worker count the run used
  unsigned word_width = 1;  ///< resolved pattern word width (64-lane units)
  /// Per simulated fault: index of the first detecting pattern, -1 undetected.
  /// The coverage curve over the run is the running count of these.
  std::vector<std::int64_t> first_detected;
  /// Faulty-machine gate evaluations performed (cone-limited work measure).
  /// Deterministic per (engine, word_width); independent of thread count.
  std::uint64_t faulty_gate_evals = 0;

  /// Fraction of simulated faults detected (collapsed convention).
  double final_coverage() const {
    return sim_faults ? double(detected) / double(sim_faults) : 0.0;
  }
  /// Class-size-weighted fraction over total_weight (total-enumerated-fault
  /// convention).
  double final_coverage_weighted() const {
    return total_weight ? double(detected_weight) / double(total_weight) : 0.0;
  }

  // --- Prefix views (the mixed-scheme sweep substrate) ---------------------
  // first_detected records the *first* detecting pattern, so a run over the
  // first L patterns of the same stream is fully determined by this result:
  // detected-within-L iff 0 <= first_detected < L.  tail_at() and
  // FaultSimulator::prefix_result() read that prefix directly, letting one
  // max-length pass answer every shorter candidate length without
  // re-simulating.

  /// Sim-fault indices NOT detected within the first `length` patterns
  /// (first_detected >= length or undetected), ascending — exactly the
  /// LFSR-resistant tail the mixed scheme's top-off phase would see after a
  /// pseudo-random phase of `length` patterns.  Well-defined at every
  /// length: 0 yields every simulated fault, anything >= patterns yields the
  /// run's final undetected set.
  std::vector<std::uint32_t> tail_at(std::size_t length) const;
};

class FaultSimulator {
 public:
  /// Enumerates and collapses the stuck-at fault list of k.netlist().
  /// The kernel must outlive the simulator.
  explicit FaultSimulator(const SimKernel& k);

  /// Simulate an explicit (already collapsed) fault list; `total_faults` is
  /// the size of the uncollapsed list it came from (reported in results).
  /// `weights` optionally gives each fault's equivalence-class size (empty =
  /// weight 1 each).
  FaultSimulator(const SimKernel& k, std::vector<Fault> faults,
                 std::size_t total_faults,
                 std::vector<std::uint32_t> weights = {});
  ~FaultSimulator();

  std::span<const Fault> faults() const { return faults_; }
  std::span<const std::uint32_t> weights() const { return weights_; }

  /// Run over the pattern blocks with fault dropping.  Repeatable: each
  /// call starts from the full fault list.  Detection results
  /// (first_detected, counts, weights) are bit-identical across every
  /// (threads, word_width) combination.  `deadline` (cooperative
  /// deadline/cancel, nullptr = never stops) is polled once per pattern-block
  /// group, so stop latency is bounded by one group's propagation cost.  A
  /// run that stops early returns the exact prefix result of the blocks it
  /// finished — bit-identical to an uninterrupted run over those patterns —
  /// with result.status recording why it stopped.
  FaultSimResult run(std::span<const PatternBlock> blocks,
                     const FaultSimOptions& opt = {},
                     const Deadline* deadline = nullptr);

  /// Restriction of `full` (a result of run() on this simulator) to its
  /// first `length` patterns: bit-identical to what run() over only those
  /// patterns would have produced, derived without re-simulating.
  /// Exception: faulty_gate_evals is carried over unchanged from `full`
  /// (the work measure of the pass actually executed, not of a hypothetical
  /// shorter one).  Requires a `full` whose fault list matches this
  /// simulator's; `length` is clamped to full.patterns (so length 0 gives
  /// the empty-prefix result and any longer length gives the full run back).
  FaultSimResult prefix_result(const FaultSimResult& full,
                               std::size_t length) const;

  /// Lanes of `good_values` (a KernelSim values() array for the current
  /// block, kernel-index space) on which fault f is detected at some primary
  /// output, by one full-cone propagation of f alone.  Building block for
  /// pattern verification, and the per-fault reference for run().
  std::uint64_t detect_lanes(const Fault& f,
                             std::span<const std::uint64_t> good_values,
                             std::uint64_t lane_mask) {
    std::uint64_t evals = 0;
    return propagate_fault(f, good_values.data(), lane_mask, &evals);
  }

  /// detect_lanes plus the per-primary-output difference words: diffs[i]
  /// (PO order, size >= output count) gets the lanes on which fault f flips
  /// output i.  One full-cone propagation per fault: the reference oracle
  /// for OutputDiffSweep.
  std::uint64_t output_diffs(const Fault& f,
                             std::span<const std::uint64_t> good_values,
                             std::uint64_t lane_mask,
                             std::span<std::uint64_t> diffs) {
    std::uint64_t evals = 0;
    return propagate_fault(f, good_values.data(), lane_mask, &evals,
                           diffs.data());
  }

 private:
  friend class OutputDiffSweep;
  std::uint64_t propagate_fault(const Fault& f, const std::uint64_t* good,
                                std::uint64_t lanes, std::uint64_t* evals,
                                std::uint64_t* po_diffs = nullptr);
  void init_scratch();
  void build_stem_groups();
  template <unsigned W>
  FaultSimResult run_ffr(std::span<const PatternBlock> blocks,
                         const FaultSimOptions& opt, const Deadline* deadline);

  const SimKernel* k_;
  std::vector<Fault> faults_;
  std::vector<std::uint32_t> weights_;  ///< per-fault class sizes
  std::size_t total_faults_ = 0;
  std::uint64_t total_weight_ = 0;

  // Static stem grouping of the fault list: group g covers sim-fault indices
  // group_faults_[group_offset_[g] .. group_offset_[g+1]) whose sites share
  // the stem root group_stem_[g].  Only non-empty groups are kept, in stem
  // level order; within a group faults keep list order.
  std::vector<KIndex> group_stem_;
  std::vector<std::uint32_t> group_offset_;
  std::vector<std::uint32_t> group_faults_;

  // Worker pool cached across run() calls (rebuilt only when the resolved
  // worker count changes), so repeated runs don't pay thread spawn cost.
  std::unique_ptr<WorkerPool> pool_;

  // Per-fault propagation scratch of detect_lanes() and output_diffs() in
  // kernel-index space, reset via touched_list_ after each fault.
  std::vector<std::uint64_t> fval_;
  std::vector<char> touched_;
  std::vector<KIndex> touched_list_;
  std::vector<std::vector<KIndex>> level_queues_;
  std::vector<char> queued_;
};

/// The output-diff sweep: per-output difference words of the faults a block
/// list detects, one kMaxWordWidth-block group at a time — the input of the
/// MISR aliasing audit (bist/compress), which needs *where* a fault is
/// observed, not just whether.  Built on the FFR stem stage: per group, ONE
/// good-machine pass and ONE cone propagation per stem for the OR of its
/// joined faults' stem words yields the stem flip's per-output-gate words
/// D_g, and since lanes are independent, fault f's diff on output gate g is
/// stem_word(f) & D_g — output_diffs() lane for lane.
///
/// Contract:
///  - Block b's live lanes are blocks[b].lane_mask() (its own `count`), so
///    the list may concatenate several pieces, each starting at lane 0 with
///    a partial last block of its own.
///  - Fault f joins at block join[f] (kNever: not at all) and its words are
///    zero on the blocks before.  A join is only a filter: it saves the
///    work of faults that cannot flip anything yet, so a caller that joins
///    each fault no later than its first detection gets every nonzero diff.
///  - A pull cursor, single-threaded: next() sweeps the next group and
///    exposes its buffers until the following call.  The faults of an
///    observed stem are listed in stem-group then fault-list order, with
///    only those whose stem word reaches some output kept.
/// The simulator and the spans must outlive the sweep.
class OutputDiffSweep {
 public:
  using Word = SimWord<kMaxWordWidth>;
  /// join[] value of a fault that never joins.
  static constexpr std::uint32_t kNever = ~std::uint32_t{0};

  /// One observed stem of the current group: its faults are words()[the
  /// previous stem's words_end, words_end) and the primary-output gates its
  /// flip reaches hits()[the previous stem's hits_end, hits_end).
  struct Stem {
    std::uint32_t words_end = 0, hits_end = 0;
  };

  OutputDiffSweep(const FaultSimulator& fsim,
                  std::span<const PatternBlock> blocks,
                  std::span<const std::uint32_t> join);
  ~OutputDiffSweep();

  /// Sweep the next group of up to kMaxWordWidth blocks (leading blocks that
  /// no fault has joined yet are skipped); false once every block is done.
  bool next();

  /// Block index of the group's sub-word 0, and the blocks it holds.
  std::size_t first_block() const { return b0_; }
  std::size_t group_blocks() const { return nb_; }
  std::span<const Stem> stems() const { return stems_; }
  /// (sim fault, stem word): sub-word j holds block first_block() + j.
  std::span<const std::pair<std::uint32_t, Word>> words() const {
    return words_;
  }
  /// (output gate, lanes on which the stem's flip reaches it).
  std::span<const std::pair<KIndex, Word>> hits() const { return hits_; }

 private:
  struct Engine;  ///< good-machine simulator, propagation scratch, live lists
  std::unique_ptr<Engine> e_;
  std::size_t b0_ = 0, nb_ = 0;
  std::vector<Stem> stems_;
  std::vector<std::pair<std::uint32_t, Word>> words_;
  std::vector<std::pair<KIndex, Word>> hits_;
};

}  // namespace bist
