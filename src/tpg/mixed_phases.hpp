#pragma once
// Internal building blocks of the mixed scheme's deterministic back end and
// its MISR sign-off, shared between run_mixed_tpg (one LFSR length) and
// run_mixed_sweep (many candidate lengths over one LFSR pass).  Everything
// here is a pure function of its inputs (the wall-clock that topoff_phases
// adds to MixedSweepStats aside), which is what makes the sweep's
// reuse of cached PODEM verdicts bit-identical to an independent per-length
// run: only the tail membership and the fill-stream replay depend on the
// LFSR length.
//
// Not part of the public surface; subject to change with the sweep engine.

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "sim/kernel.hpp"
#include "tpg/mixed.hpp"
#include "tpg/sweep.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace bist::mixed_phase {

/// Deterministic X-fill bit source: 64-bit PCG words sliced LSB-first, one
/// bit consumed per X.  Word-granular draws cost 1/64th the RNG work of the
/// former one-draw-per-bit scheme; the emitted stream is a fixed function of
/// the seed alone, so replaying a point's fill is just re-walking its tail.
class FillBits {
 public:
  explicit FillBits(std::uint64_t seed) : rng_(seed) {}

  bool next() {
    if (left_ == 0) {
      word_ = rng_.next_u64();
      left_ = 64;
    }
    const bool b = word_ & 1;
    word_ >>= 1;
    --left_;
    return b;
  }

 private:
  Rng rng_;
  std::uint64_t word_ = 0;
  unsigned left_ = 0;
};

/// Complete a PODEM cube into a fully-specified pattern: specified bits are
/// copied, X bits drawn from `bits` in cube order.  A PODEM cube guarantees
/// detection for every completion of its X bits, so the fill is free to
/// chase incidental detections; random fill is the standard choice.
BitVec fill_cube(std::span<const Ternary> cube, FillBits& bits);

/// Fault-sim check of every pattern against its target fault
/// (`fsim.faults()[target[i]]` for patterns[i]), batched 64 patterns per
/// KernelSim pass instead of one pass per pattern.  Returns true iff every
/// pattern detects its target.
bool verify_batched(const SimKernel& k, FaultSimulator& fsim,
                    std::span<const BitVec> patterns,
                    std::span<const std::uint32_t> target);

/// A tail fault the kept top-off set detects, with the first top-off
/// pattern (application order) that detects it.
struct TopoffHit {
  std::uint32_t fault = 0;    ///< sim-fault index
  std::uint32_t pattern = 0;  ///< index into MixedSchemeResult::topoff
};

/// Everything after the PODEM verdicts for one LFSR length: X-fill the
/// detected cubes (fresh fill stream from opt.fill_seed, tail order),
/// verification, reverse-order compaction, and the final tail accounting.
/// `lr` is the LFSR phase's result at this length (an independent run, or
/// the sweep's prefix_result of its shared pass — the two are identical),
/// `tail` holds the point's sim-fault indices ascending and `verdicts[i]`
/// the PODEM outcome for tail[i].  Fills every field of r from these,
/// lfsr_patterns and lfsr_coverage[_weighted] included, except the MISR
/// half of r.comp: under opt.compress the kept rows' seed schedules are
/// set, and sign_off() adds the audited fold and golden signature.
/// Compaction and accounting run on one FaultSimulator over the tail faults
/// whose verdict is not Redundant (opt.fsim's engine, no deadline): a
/// proven fault has no test, so leaving it out changes no detection, and
/// verify_wrapper's coverage pass, which simulates every fault, would show
/// an unsound proof as a coverage mismatch.  Compaction simulates the
/// top-off set in reverse and keeps each target's first detecting pattern,
/// and the accounting pass simulates the kept set.  Adds the GF(2) reseeding
/// solves' wall-clock to stats.solve_seconds, the rest of the fill+verify
/// to stats.podem_seconds and the compaction+accounting to
/// stats.compact_seconds.  Returns the tail faults the kept set detects,
/// sign_off()'s input for the top-off.
std::vector<TopoffHit> topoff_phases(
    const SimKernel& k, FaultSimulator& fsim, const FaultSimResult& lr,
    std::span<const std::uint32_t> tail,
    std::span<const PodemResult* const> verdicts, const MixedTpgOptions& opt,
    MixedSchemeResult& r, MixedSweepStats& stats);

/// Downgrade a result whose pseudo-random phase ran (possibly truncated) but
/// whose top-off did not: `lr` is the LFSR phase's result for the prefix
/// that ran.  Fills the lfsr_* fields and tail_faults from it, copies the
/// LFSR coverage into the final coverage (an empty top-off adds nothing),
/// and marks the point LfsrOnly with `why` as the reason.  The result is a
/// valid degraded hardware point — the coverage it claims is exactly what
/// the pseudo-random phase proved.  Under opt.compress the caller signs it
/// off like a complete point (sign_off() with no top-off hits), so a
/// degraded wrapper signs off exactly like a complete one.
void finish_lfsr_only(const FaultSimResult& lr, MixedSchemeResult& r,
                      StageStatus why);

/// One point handed to sign_off(): its result, whose lfsr_patterns and
/// topoff (empty for an LfsrOnly point) fix its applied stream, and what
/// that top-off detects.
struct SignOffPoint {
  MixedSchemeResult* r = nullptr;
  std::vector<TopoffHit> hits;
};

/// MISR sign-off of every point in one ascending pass over the shared LFSR
/// stream (the compressed architecture's output side), folds chosen for a
/// `base` MISR (the pipeline's is misr_spec_for(outputs)).  Each point's
/// applied stream is the first r->lfsr_patterns LFSR patterns, then
/// r->topoff; `first_detected` is the LFSR pass's first-detection index per
/// sim fault (-1 = never), valid up to the longest point.  One MisrAudit
/// serves every point, and each audited block is paid for once:
///  - every point's top-off is one piece of a single batched feed
///    (MisrAudit::add_pieces, one OutputDiffSweep), each piece's deltas
///    kept apart.  A fault joins at the earliest piece whose point detects
///    it (a prefix detection or one of the point's `hits`), which is exact:
///    on a piece whose point does not detect it its output diffs are zero;
///  - the LFSR stream is produced in one Lfsr::blocks() segment per point
///    and each segment is fed once into the running accumulator.
/// At each point the pass toggles the point's own top-off deltas in, scores
/// the fold candidates with pick_misr_fold() over exactly the faults the
/// point's stream detects (prefix detections plus `hits`), toggles them out
/// again, and takes the golden signature under the chosen fold, chained
/// over the kept segments and the top-off: the register state over the
/// LFSR stream is carried on from the previous point while the chosen fold
/// stays the same, and recomputed from cycle 0 when it changes.  By MISR
/// linearity every point's fold and golden equal choose_misr_fold() and
/// misr_signature() over its whole applied stream.  Sets r->comp's enabled,
/// degree, cut_outputs, misr and golden.
/// Points may come in any order; equal lengths share one (the first) LFSR
/// segment.
void sign_off(const SimKernel& k, const FaultSimulator& fsim,
              const MixedTpgOptions& opt, const MisrSpec& base,
              std::span<const std::int64_t> first_detected,
              std::span<SignOffPoint> points);

}  // namespace bist::mixed_phase
