#pragma once
// The paper's mixed test scheme, end to end for one circuit:
//
//   LFSR phase        maximal-length LFSR patterns through the PPSFP fault
//                     simulator -> first detections + undetected tail
//   top-off phase     PODEM test cube per tail fault (redundant and aborted
//                     faults classified separately: Redundant comes from
//                     the engine's implication proof or from an exhausted
//                     search), X bits random-filled
//   verification      every filled pattern re-checked by the PPSFP
//                     propagate against its target fault
//   compaction        the top-off set fault-simulated in reverse over the
//                     tail; a pattern is kept iff it is some target's first
//                     detection, i.e. covers a target no later kept pattern
//                     does.  The same tail simulator then accounts the kept
//                     set's coverage
//   sign-off          (compressed) audited MISR fold and golden signature
//                     over the applied stream — one pass for every point of
//                     a sweep, complete and LFSR-only alike, by MISR
//                     linearity (run_mixed_tpg is that pass with one point)
//
// MixedSchemeResult carries the per-point totals the scheduler and area
// model trade off: LFSR length vs. deterministic pattern count (ROM bits),
// the compressed test data, and the achieved coverage under both
// fault-accounting conventions.  The LFSR phase's per-fault detail (the
// FaultSimResult) is an intermediate: it feeds the top-off phases and is
// not kept on the point.  A point is a plain value with no wall-clock
// field, so two points compare with `==`; a sweep's phase timings live in
// MixedSweepStats (tpg/sweep.hpp).

#include <cstdint>
#include <vector>

#include "bist/compress.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "sim/kernel.hpp"
#include "util/bitvec.hpp"
#include "util/deadline.hpp"

namespace bist {

struct MixedTpgOptions {
  std::size_t lfsr_patterns = 4096;  ///< pseudo-random phase length
  unsigned lfsr_degree = 32;
  std::uint64_t lfsr_seed = 0xBADC0FFEu;
  /// Fault-simulation engine knobs (threads, word width) for the LFSR phase
  /// and the tail simulator's compaction and accounting passes; detection
  /// results are engine-invariant, so these only change speed.
  FaultSimOptions fsim;
  PodemOptions podem;
  /// Worker count for the PODEM top-off phase (resolve_threads semantics:
  /// 0 = hardware concurrency).  Verdicts are reduced in fixed fault order,
  /// so results are bit-identical for every value; this only changes speed.
  unsigned podem_threads = 1;
  std::uint64_t fill_seed = 0x5EEDF111;  ///< X-fill RNG seed for test cubes
  /// Compressed test-data architecture (the default): each detected cube is
  /// solved into an LFSR reseeding schedule (bist/compress), the stored
  /// top-off pattern is DEFINED as the seed expansion (free seed variables
  /// take the X-fill stream's bits), and a MISR spec + golden signature over
  /// the applied stream is attached to the result.  false selects the legacy
  /// fully decoded ROM path — bit-identical to the pre-compression pipeline.
  /// The MISR is misr_spec_for(CUT output count); its output-to-stage fold
  /// is audited per point: once a point's applied stream is final
  /// (pseudo-random prefix plus kept top-off set), choose_misr_fold()'s
  /// rule picks an assignment with zero empirical aliasing escapes over
  /// everything that stream detects (the natural o mod K fold when it is
  /// already clean).
  /// The audit must see the top-off patterns: the random-pattern-resistant
  /// faults they target are exactly the ones a pseudo-random-only audit can
  /// never check.
  bool compress = true;
};

/// How much of a mixed-scheme evaluation actually ran — the anytime ladder
/// the scheduler selects over when a deadline cuts a sweep short.
enum class PointState : std::uint8_t {
  Complete,  ///< full pipeline: LFSR phase + PODEM top-off + compaction
  LfsrOnly,  ///< LFSR phase finished but the top-off did not: coverage and
             ///< tail are exact for the pseudo-random phase alone, topoff
             ///< is empty — a valid (degraded) hardware point
  Skipped,   ///< nothing usable ran; every data field is meaningless
};

std::string_view point_state_name(PointState s);

struct MixedSchemeResult {
  std::size_t lfsr_patterns = 0;
  std::size_t tail_faults = 0;     ///< undetected after the LFSR phase
  std::size_t podem_detected = 0;  ///< tail faults with a generated test
  /// Proven untestable: by implication before any search, or by an
  /// exhausted search.
  std::size_t redundant = 0;
  std::size_t aborted = 0;  ///< backtrack limit hit, no verdict
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_decisions = 0;
  std::size_t topoff_before_compaction = 0;
  std::size_t topoff_patterns = 0;  ///< |topoff| after compaction
  /// Deterministic top-off set in application order.
  std::vector<BitVec> topoff;
  /// Compression artifacts (comp.enabled iff opt.compress and the point ran
  /// far enough to define an applied stream): per-row seed schedules and
  /// fallback flags aligned with `topoff`, MISR spec, golden signature over
  /// the LFSR phase + top-off stream.  LfsrOnly points carry the MISR and
  /// golden for their (possibly truncated) pseudo-random prefix with no
  /// seeds; Skipped points leave it disabled.
  CompressedTopoff comp;
  std::vector<Fault> redundant_faults;
  std::vector<Fault> aborted_faults;
  /// Coverage after the LFSR phase alone / after LFSR + top-off, collapsed
  /// convention (denominator = collapsed faults) and total-enumerated
  /// convention (class-size weighted, denominator = uncollapsed faults).
  double lfsr_coverage = 0.0;
  double lfsr_coverage_weighted = 0.0;
  double final_coverage = 0.0;
  double final_coverage_weighted = 0.0;
  /// True iff every emitted pattern was confirmed to detect its target fault.
  bool all_verified = true;
  /// Anytime ladder position (Complete unless a deadline/cancel fired) and
  /// why a non-Complete state was reached.  For a Complete point `status`
  /// is Ok and every field is bit-identical to an undeadlined run; for
  /// LfsrOnly the lfsr_* fields and final_coverage (== lfsr_coverage) are
  /// exact and topoff is empty; for Skipped nothing is valid.
  PointState state = PointState::Complete;
  StageStatus status;

  bool operator==(const MixedSchemeResult&) const = default;
};

/// Run the mixed scheme on a compiled circuit, to completion.  Deterministic
/// for a given kernel + options; the result `==` run_mixed_sweep's point at
/// opt.lfsr_patterns.  Deadlines and the anytime ladder belong to
/// run_mixed_sweep.
MixedSchemeResult run_mixed_tpg(const SimKernel& k,
                                const MixedTpgOptions& opt = {});

/// Same, reusing a prebuilt FaultSimulator (skips fault re-enumeration).
MixedSchemeResult run_mixed_tpg(const SimKernel& k, FaultSimulator& fsim,
                                const MixedTpgOptions& opt);

}  // namespace bist
