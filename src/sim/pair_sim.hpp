#pragma once
// Lock-step (good, faulty) three-valued simulation — PODEM's implication
// engine.  One byte per gate carries both machines, and one gate evaluation
// serves both.
//
// Byte layout: bits 0-1 are the good machine's lane, bits 2-3 the faulty
// machine's.  Each lane is dual-rail: bit 0 means "is 0", bit 1 means
// "is 1", and 00 is X.  A (good, faulty) pair of (1,0) — byte 0b1001 —
// carries D, (0,1) — byte 0b0110 — carries D-bar.  The same bitwise ops
// evaluate both lanes at once:
//  - AND: AND the 1-rails, OR the 0-rails; OR is the dual;
//  - XOR: the pairwise rail formula, folded over the fanins;
//  - inversion (NAND/NOR/XNOR/NOT) swaps the two rails of each lane.
//
// The single stuck-at fault touches only the faulty lane: a stem fault
// overwrites the site's faulty lane, a branch fault replaces the forced
// pin's faulty lane while the site gate is evaluated.
//
// assign() propagates a PI change through one levelized event queue
// (fanouts are queued when either lane changes) and records every changed
// byte on a trail; undo(mark) pops the trail back, restoring the exact bytes
// from before the mark without re-simulating.  Each lane always equals what
// a TernarySim (the reference oracle, one machine per instance) computes for
// the same assignment, with the fault forced in the faulty one.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/ternary_sim.hpp"

namespace bist {

class PairSim {
 public:
  /// The kernel must outlive the simulator.  Any fanin count is supported.
  explicit PairSim(const SimKernel& k);

  /// Start over for one fault: every PI unassigned, the fault injected into
  /// the faulty lane (pin < 0: `site`'s output stuck at `stuck`; otherwise
  /// the branch into fanin `pin` of `site`; site == kNoGate: no fault), the
  /// trail emptied, and one full evaluation.  Throws std::out_of_range on a
  /// bad pin; the next reset() starts over regardless.
  void reset(KIndex site, int pin, Ternary stuck);

  /// Assign primary input `input_idx` (PI order) to v in both machines and
  /// propagate the change, recording every changed byte on the trail.
  void assign(std::size_t input_idx, Ternary v);

  /// Current trail position; undo(mark()) later returns to this state.
  std::size_t mark() const { return trail_.size(); }
  /// Pop the trail back to `m`: every byte, PI assignments included, is
  /// restored to its value when mark() returned `m`.
  void undo(std::size_t m);

  /// Raw (good, faulty) byte of kernel gate k.
  std::uint8_t pair(KIndex k) const { return values_[k]; }
  Ternary good(KIndex k) const { return lane_value(values_[k] & 3); }
  Ternary faulty(KIndex k) const { return lane_value(values_[k] >> 2); }

  /// Either machine is still X.
  static bool has_x(std::uint8_t p) { return (p & 0x3) == 0 || (p & 0xC) == 0; }
  /// Both machines binary and different: the byte carries D or D-bar.
  static bool is_diff(std::uint8_t p) { return p == 0x9 || p == 0x6; }

 private:
  static Ternary lane_value(unsigned lane) {
    return lane == 1 ? Ternary::V0 : lane == 2 ? Ternary::V1 : Ternary::VX;
  }
  std::uint8_t compute(KIndex g) const;
  template <bool kBranch>
  std::uint8_t eval(KIndex g) const;
  void set(KIndex g, std::uint8_t v);
  void enqueue_fanouts(KIndex g);

  const SimKernel* k_;
  std::vector<std::uint8_t> values_;  // per kernel index, layout above

  // Fault injection.  site_ == kNoGate: fault-free.
  KIndex site_ = kNoGate;
  std::uint32_t forced_slot_ = 0;  // fanin CSR slot of a branch fault
  bool branch_ = false;
  std::uint8_t stuck_lane_ = 0;    // stuck value as a faulty-lane byte (<< 2)

  struct TrailEntry {
    KIndex gate;
    std::uint8_t old;
  };
  std::vector<TrailEntry> trail_;

  // Levelized event scheduling scratch.
  std::vector<std::vector<KIndex>> level_queues_;
  std::vector<char> queued_;
  unsigned hi_level_ = 0;  // highest level queued by the running propagate
};

}  // namespace bist
