#pragma once
// Incremental mixed-scheme sweep: evaluate the paper's central trade-off —
// LFSR test length vs. stored deterministic patterns (ROM bits) — at many
// candidate lengths for the cost of little more than one evaluation at the
// longest.  Three stacked optimizations over the naive per-point
// run_mixed_tpg loop:
//
//   one LFSR pass      the fault simulator runs once, at max(lengths); a
//                      fault is in the tail at length L iff its
//                      first_detected index is >= L or it was never
//                      detected, so every point's tail and LFSR-phase
//                      result is derived from that single pass
//                      (FaultSimResult::tail_at / prefix_result) — the
//                      pseudo-random phase is never re-simulated, and the
//                      derived prefix is a transient input to the point's
//                      top-off phases, not part of the point
//   parallel PODEM     the union of the tails is one resumable PodemBatch
//                      session (per-worker engines, dynamic grain-1
//                      hand-out, one slot per fault), so verdicts are
//                      bit-identical for every thread count; each point
//                      decides its own prefix of the session, and lanes
//                      that run ahead keep their searches for the next
//                      point instead of idling at the boundary; its
//                      implication pre-pass proves most untestable faults
//                      Redundant before any search, the rest of Redundant
//                      being exhausted searches
//   cube caching       lengths are swept descending, so the tail only grows
//                      from point to point; a cube, redundancy proof, or
//                      aborted verdict generated when a fault first enters
//                      the tail is reused at every shorter length (a PODEM
//                      cube is valid regardless of the LFSR phase — only
//                      tail membership changes), making total PODEM work
//                      equal to ONE run at min(lengths)
//
// Per-point X-fill, verification, compaction, and tail accounting still run
// on the reused cubes (the fill stream replays per point, so the emitted
// pattern sets match an independent run exactly).  Under compression every
// usable point is then signed off in ONE ascending pass over the LFSR
// stream: a running MISR fold-audit accumulator takes each stream segment
// once, and a point's own top-off is added to it only while its fold is
// chosen (mixed_phase::sign_off).  Every per-point
// MixedSchemeResult is bit-identical (`==`) to run_mixed_tpg at that
// length — tails, cube sets, verdicts, top-off patterns, compressed test
// data, and both coverage conventions — at every thread count; the
// differential guarantee is enforced by tests/test_mixed_sweep.cpp and the
// bench's naive-vs-sweep cross-check.  Points carry no timings: the sweep's
// phase wall-clock is in MixedSweepStats.

#include <cstdint>
#include <span>
#include <vector>

#include "tpg/mixed.hpp"

namespace bist {

/// Sweep-level counters and timings (per-point results live in each
/// MixedSchemeResult).  Only the two PODEM counters are persisted by the
/// store; the worker count and the timings are in-memory echoes of the run
/// that computed the sweep, so a store hit or a manifest replay reads the
/// defaults.  The four timings are disjoint steady-clock slices of the
/// sweep's wall clock.
struct MixedSweepStats {
  std::size_t podem_calls = 0;       ///< engine invocations (cache misses)
  std::size_t podem_cache_hits = 0;  ///< verdicts served by the cube cache
  unsigned podem_threads = 1;        ///< resolved PODEM worker count
  /// The shared max-length fault-sim pass (plus the anytime floor's pass
  /// when it runs).
  double lfsr_seconds = 0.0;
  /// All points: PODEM generation, plus X-fill and verification less the
  /// seed solves.
  double podem_seconds = 0.0;
  double compact_seconds = 0.0;  ///< all points: compaction + accounting
  /// The compression layer: every point's GF(2) reseeding solves plus the
  /// one shared sign-off pass — fold audits and golden signatures of every
  /// Complete and LfsrOnly point, counted once.
  double solve_seconds = 0.0;
};

struct MixedSweepResult {
  std::vector<std::size_t> lengths;      ///< as given, order preserved
  std::vector<MixedSchemeResult> points; ///< parallel to `lengths`
  std::size_t width = 0;  ///< pattern width (= circuit PI count) of the run
  MixedSweepStats stats;
  /// Ok when every point ran to completion; otherwise the first stop reason
  /// (deadline/cancel) encountered.  Individual points carry their own
  /// state/status — a non-Ok sweep still holds every Complete point computed
  /// before the stop, bit-identical to an uninterrupted run.
  StageStatus status;
};

/// Evaluate the mixed scheme at every length in `lengths` (any order,
/// duplicates allowed; opt.lfsr_patterns is ignored — the lengths drive the
/// stream).  Deterministic for a given kernel + options at every thread
/// count.
///
/// Anytime contract under `deadline` (cooperative deadline/cancel, nullptr =
/// never stops): it is polled per sweep point and threaded into the shared
/// LFSR pass and every PODEM batch.  When it fires, points already finished
/// stay Complete (bit-identical to an uninterrupted sweep), the in-flight
/// and remaining points degrade to LfsrOnly where their exact LFSR prefix is
/// available and Skipped where it is not, and if NOTHING usable survived
/// (deadline beat even the shared pass) a bounded undeadlined fault-sim
/// floor at min(lengths) produces one exact LfsrOnly point — the sweep
/// always returns at least one point a scheduler can select and a wrapper
/// can prove.
MixedSweepResult run_mixed_sweep(const SimKernel& k, FaultSimulator& fsim,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt = {},
                                 const Deadline* deadline = nullptr);

/// Convenience overload owning its FaultSimulator.
MixedSweepResult run_mixed_sweep(const SimKernel& k,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt = {},
                                 const Deadline* deadline = nullptr);

}  // namespace bist
