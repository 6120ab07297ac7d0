#pragma once
// Gate-level synthesis of the mixed-scheme BIST wrapper — the paper's
// hardware generator, closed end to end: a scheduled BistPlan becomes a
// standalone netlist containing the test hardware AND a copy of the circuit
// under test, emittable as .bench via write_bench and simulatable by every
// engine in the repo.
//
// The substrate is combinational, so the wrapper is the standard one-frame
// unrolling of the sequential BIST machine: every state bit appears as a
// primary-input / primary-output pair (current state in, next state out);
// bist/verify.hpp proves the closed loop, 64 cycles per evaluation.
//
// Blocks, all wired through NetlistBuilder by net name:
//
//   LFSR         the plan's maximal-length LFSR unrolled width times
//                (test-per-clock: one applied pattern = width stream bits =
//                width shifts), one feedback XOR network per shift; the
//                pattern bits are the pre-shift output-stage taps, exactly
//                the Lfsr class's stream convention.
//   counter      ripple-increment cycle counter wide enough for
//                lfsr_patterns + topoff cycles.
//   ROM          stored top-off patterns as decoded logic: per row an
//                equality decode of its cycle index (counter literals, shared
//                inverters), per CUT input an OR over the rows whose stored
//                bit is set.
//   controller   phase select = OR of the row decodes (low during the whole
//                pseudo-random phase), inverted to gate the LFSR legs.
//   muxing       per CUT input: AND(phase', lfsr_bit) merged with the ROM
//                column; the mux output *takes the CUT input's net name*
//                (prefixed), so the embedded CUT is driven transparently.
//   CUT copy     every logic gate of the CUT, names prefixed "cut_".
//
// Net-name conventions (the verify harness resolves these by name, and they
// survive a write_bench/read_bench round trip):
//
//   bist_lfsr_s<i> / bist_lfsr_n<i>   LFSR state bit i, current / next
//   bist_cnt_s<i>  / bist_cnt_n<i>    counter bit i (LSB first)
//   cut_<name>                        CUT net (CUT inputs name mux outputs)
//
// Wrapper primary inputs: LFSR then counter state bits.  Primary outputs:
// the CUT's outputs (order preserved), then next LFSR state, then next
// counter state.

#include <cstddef>

#include "bist/schedule.hpp"
#include "netlist/netlist.hpp"
#include "util/deadline.hpp"

namespace bist {

struct BistSynthResult {
  Netlist wrapper;
  /// Exact GE accounting of the emitted BIST logic under plan.area_model
  /// (CUT copy excluded; state bits priced as flip-flops).
  BistArea actual;
  std::size_t bist_gates = 0;    ///< emitted BIST logic gates (CUT excluded)
  std::size_t counter_bits = 0;
  /// Ok for a full build.  When the cooperative deadline fires mid-build the
  /// status records why, `wrapper` is left EMPTY (a partial netlist is not a
  /// wrapper) and the accounting fields cover only the gates emitted so far.
  StageStatus status;
};

/// Synthesize the wrapper for `cut` (which must be frozen and match
/// plan.width).  Deterministic for a given (cut, plan).  Throws
/// std::invalid_argument on width mismatch or an empty (zero-cycle) plan.
/// `deadline` is polled per LFSR unroll step, per ROM row, per CUT-copy
/// chunk and per MISR stage (bounded stop latency, same contract as
/// fault-sim/PODEM); nullptr never stops.
BistSynthResult synthesize_bist_wrapper(const Netlist& cut,
                                        const BistPlan& plan,
                                        const Deadline* deadline = nullptr);

}  // namespace bist
