#pragma once
// Closed-loop verification of a synthesized BIST wrapper — the proof that
// the generated hardware, simulated gate by gate, reproduces the scheduled
// mixed-scheme point exactly.
//
// The wrapper is the one-frame unrolling of a sequential machine: state in
// (LFSR, cycle counter, MISR) on primary inputs, next state and the CUT's
// applied pattern out.  verify_wrapper() proves its whole run by induction
// over that transition function instead of running it cycle by cycle:
//
//   prediction  the reference models give the state at every cycle t:
//               the LFSR, while it runs free (the pseudo-random phase),
//               holds the next `degree` Lfsr stream bits at offset t*width;
//               through the ROM phase it is carried one row at a time,
//               stepped width times with the row's seed loads (step_row,
//               as expand_row expands a seed schedule); the counter equals
//               t; the MISR is misr_step() over the CUT good machine's
//               outputs under the plan's fold.  The applied pattern at t is
//               the Lfsr stream's pattern t, then the stored top-off row.
//   step        the wrapper is evaluated once per 64-cycle frame, lane t
//               fed predicted state t.  Every lane's next-state outputs
//               must equal predicted state t+1 and its CUT input nets
//               (cut_*) predicted pattern t.
//   base        predicted state 0 is the harness's reset state (plan seed,
//               counter 0, MISR 0).
//
// So the sequential run equals the prediction at every cycle — every
// intermediate state, not only the endpoints.  The predicted blocks then
// feed the checks against the scheduled point:
//   - the first lfsr_patterns applied patterns are bit-identical to the
//     Lfsr class's stream for the plan's (degree, taps, seed)
//     (lfsr_phase_identical, with the transitions out of those cycles);
//   - the remaining applied patterns equal the plan's stored top-off set in
//     application order, hence set-identical (topoff_identical, likewise);
//   - fault-simulating the CUT over the applied patterns yields exactly the
//     point's final coverage, under both accounting conventions, down to
//     the double (same integer numerators over the same denominators);
// and, for a compressed plan (plan.comp.enabled):
//   - every seeded (non-fallback) top-off row is bit-identical to its seed
//     schedule's expansion, proving the stored set really is the seed
//     expansion;
//   - the wrapper's MISR follows the prediction, lands exactly on the plan's
//     golden signature and raises bist_sign_ok on the final cycle;
//   - the empirical aliasing audit (misr_aliasing_check) is reported:
//     detected faults whose faulty signature would equal the golden one.
//     Escapes do not fail ok() — they bound the compaction's quality and
//     are gated to zero by the bench/tests on the surrogate family.
//
// simulate_wrapper() is the layer's reference oracle: it closes the loop
// the plain way, one wrapper evaluation per cycle with the next-state
// outputs fed back, assuming nothing about the expected stream.  The tests
// compose every WrapperVerification field from it and compare.

#include <cstdint>
#include <vector>

#include "bist/schedule.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "tpg/mixed.hpp"
#include "util/bitvec.hpp"
#include "util/deadline.hpp"

namespace bist {

struct WrapperSimResult {
  /// One applied CUT input pattern per cycle (lfsr phase then ROM phase).
  std::vector<BitVec> applied;
  std::uint64_t final_lfsr_state = 0;
  std::uint64_t final_counter = 0;
  /// MISR state after the last cycle (read off bist_misr_n) and the
  /// comparator output on that cycle; both 0/false when the plan carries no
  /// MISR.
  std::uint64_t final_misr = 0;
  bool sign_ok = false;
  /// Ok for a full run; a cooperative stop leaves the exact prefix of
  /// cycles that DID run in `applied` and records why here.
  StageStatus status;
};

/// Reference oracle: run the wrapper for plan.test_time cycles, one
/// evaluation per cycle.  `cut` provides the input net names (the wrapper
/// nets are resolved as "cut_<name>", "bist_lfsr_s<i>", ... per the synth
/// conventions); the wrapper may be the synthesized netlist or a .bench
/// re-parse of it.  Throws std::runtime_error when an expected net is
/// missing.  `deadline` is polled once per cycle (bounded stop latency);
/// nullptr never stops.
WrapperSimResult simulate_wrapper(const Netlist& wrapper, const Netlist& cut,
                                  const BistPlan& plan,
                                  const Deadline* deadline = nullptr);

struct WrapperVerification {
  bool lfsr_phase_identical = false;
  bool topoff_identical = false;
  bool coverage_identical = false;
  /// Compressed-plan checks; trivially true for a legacy (decoded) plan.
  bool seeds_identical = true;      ///< seeded rows == their seed expansion
  bool signature_identical = true;  ///< MISR follows the prediction, ends on
                                    ///< golden, sign_ok raised
  /// Cycles proven: plan.test_time on a full run, the frames proven before
  /// a cooperative stop otherwise.
  std::size_t cycles = 0;
  double achieved_coverage = 0;
  double achieved_coverage_weighted = 0;
  std::uint64_t misr_signature = 0;  ///< wrapper's final signature
  /// Empirical MISR aliasing audit over the applied stream (zeroed for a
  /// legacy plan): reported, not part of ok().
  AliasingReport aliasing;
  /// Ok when every check ran; a cooperative stop (between frames or inside
  /// the coverage fault-sim pass) records why here and leaves the unreached
  /// checks false — ok() is then false, but the stop is not an error.
  StageStatus status;
  bool ok() const {
    return lfsr_phase_identical && topoff_identical && coverage_identical &&
           seeds_identical && signature_identical;
  }
};

/// Prove the wrapper by induction (see above) and check it against the
/// scheduled point (the MixedSchemeResult the plan was chosen from, i.e.
/// sweep.points[plan.point_index]).  `fopt` only selects the fault-sim
/// engine configuration; detection results are engine-invariant.
/// `deadline` is polled once per 64-cycle frame and threaded into the
/// coverage fault-sim pass.  Throws std::runtime_error when an expected
/// wrapper net is missing.
WrapperVerification verify_wrapper(const Netlist& wrapper, const Netlist& cut,
                                   const BistPlan& plan,
                                   const MixedSchemeResult& point,
                                   const FaultSimOptions& fopt = {},
                                   const Deadline* deadline = nullptr);

}  // namespace bist
