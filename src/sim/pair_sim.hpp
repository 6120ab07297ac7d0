#pragma once
// Lane-parallel lock-step (good, faulty) three-valued simulation — PODEM's
// implication engine.  Two 64-bit words per gate carry kLanes = 32
// independent lanes.  Each lane is one search's machine pair, with its own
// fault and its own primary-input assignment, and one bitwise gate
// evaluation serves every lane and both machines of each.
//
// Lane layout: lane L is the nibble at bits 4(L%16)..4(L%16)+3 of word
// L/16.  The two words of a gate are held in one 128-bit GCC/Clang vector
// (LaneWords), so each bitwise op below is one SSE2 instruction on x86-64
// without any -march flag; a word is read by subscript ([0] or [1]).  Bits
// 0-1 of the nibble are the good machine, bits 2-3 the faulty machine.
// Each machine is dual-rail: the low bit means "is 0", the high bit "is 1",
// and 00 is X.  A (good, faulty) pair of (1,0) — nibble 0b1001 — carries D,
// (0,1) — nibble 0b0110 — carries D-bar.  With the rail masks 0x5555…
// ("is 0") and 0xAAAA… ("is 1"), the same bitwise ops evaluate every
// machine at once:
//  - AND: AND the 1-rails, OR the 0-rails; OR is the dual;
//  - XOR: the pairwise rail formula, folded over the fanins;
//  - inversion (NAND/NOR/XNOR/NOT) swaps the two rails of each machine.
//
// A lane's single stuck-at fault touches only that lane's faulty machine,
// through injection masks that hold the lane's faulty rails (mask) and the
// stuck value in them (value):
//  - a stem fault sets the site gate's stem masks: after the site (gate,
//    PI or constant) is evaluated, its masked rails take the stuck value;
//  - a branch fault sets the masks of the forced fanin slot (the site's
//    fanin CSR entry): while the site gate is evaluated, that slot reads the
//    stuck value in place of the driver's faulty rails.
// Lanes are independent, so two of them may carry faults on the same gate,
// or the same fault.
//
// There is no event queue and no trail.  evaluate() is one levelized pass
// over every gate, so a lane's state is a pure function of its PI
// assignment and its fault: unassigning a PI is writing X back to it, and
// the next pass restores everything downstream.  Values read between a
// load()/set_input() and the next evaluate() are stale.  After a pass each
// lane equals what a TernarySim (the reference oracle, one machine per
// instance) computes for the same assignment, with the fault forced in the
// faulty one.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/ternary_sim.hpp"

namespace bist {

/// The two value words of a gate (lane L in word L/16), one 128-bit vector.
using LaneWords = std::uint64_t __attribute__((vector_size(16)));

class PairSim {
 public:
  static constexpr unsigned kLanes = 32;
  static constexpr unsigned kWordLanes = 16;  ///< lanes per 64-bit word

  /// The kernel must outlive the simulator.  Any fanin count is supported.
  /// Every lane starts fault-free with every PI unassigned.
  explicit PairSim(const SimKernel& k);

  /// Give `lane` a new fault and unassign all of its PIs; the other lanes
  /// are untouched.  pin < 0: `site`'s output stuck at `stuck`; otherwise
  /// the branch into fanin `pin` of `site`; site == kNoGate: no fault.
  /// Throws std::out_of_range on a bad pin, leaving the lane fault-free.
  void load(unsigned lane, KIndex site, int pin, Ternary stuck);

  /// Assign primary input `input_idx` (PI order) to v in both machines of
  /// `lane`; VX unassigns it.
  void set_input(unsigned lane, std::size_t input_idx, Ternary v);

  /// One levelized pass over every gate, all lanes at once.
  void evaluate();

  /// Raw (good, faulty) nibble of kernel gate k in `lane`.
  std::uint8_t pair(unsigned lane, KIndex k) const {
    return static_cast<std::uint8_t>(
        (values_[k][lane / kWordLanes] >> shift(lane)) & 0xF);
  }
  Ternary good(unsigned lane, KIndex k) const {
    return machine_value(pair(lane, k) & 3);
  }
  Ternary faulty(unsigned lane, KIndex k) const {
    return machine_value(pair(lane, k) >> 2);
  }

  /// Every gate's value words (kernel order), layout above.
  std::span<const LaneWords> values() const { return values_; }

  /// Either machine is still X.
  static bool has_x(std::uint8_t p) { return (p & 0x3) == 0 || (p & 0xC) == 0; }
  /// Both machines binary and different: the nibble carries D or D-bar.
  static bool is_diff(std::uint8_t p) { return p == 0x9 || p == 0x6; }

  /// Lane masks, per word: bit 4j (the low bit of nibble j) of each is
  /// has_x / is_diff of nibble j of value word v.  W is one word
  /// (std::uint64_t) or a gate's two (LaneWords), word by word.
  static constexpr std::uint64_t kLaneBits = 0x1111111111111111ull;
  template <class W>
  static W x_lanes(W v) {
    return (~(v | v >> 1) | ~(v >> 2 | v >> 3)) & kLaneBits;
  }
  template <class W>
  static W diff_lanes(W v) {
    // good binary, faulty binary, and the two "is 1" rails differ
    return (v ^ v >> 1) & (v >> 2 ^ v >> 3) & (v >> 1 ^ v >> 3) & kLaneBits;
  }

  /// Bit position of lane L's nibble in its word.
  static unsigned shift(unsigned lane) { return 4 * (lane % kWordLanes); }
  /// Lane L's bit of a lane mask.
  static bool lane_in(const LaneWords& m, unsigned lane) {
    return (m[lane / kWordLanes] >> shift(lane)) & 1;
  }
  /// Some lane of m is set.
  static bool any(const LaneWords& m) { return (m[0] | m[1]) != 0; }

 private:
  static Ternary machine_value(unsigned rails) {
    return rails == 1 ? Ternary::V0 : rails == 2 ? Ternary::V1 : Ternary::VX;
  }
  // One scheduled gate: its fanins are fin_[begin, end).
  struct Slot {
    KIndex gate;
    std::uint32_t begin, end;
  };
  template <MicroOp kOp, bool kInjected>
  LaneWords eval(const Slot& s) const;
  template <MicroOp kOp>
  void eval_run(const Slot* s, const Slot* end, std::uint64_t inv);

  const SimKernel* k_;
  // The schedule regrouped so that each level's gates come in runs of one
  // micro-op and one inversion: gates of a level are independent, so the
  // order inside a level is free, and a run dispatches its gate function
  // once instead of once per gate.  The fanins are copied in that order.
  std::vector<Slot> order_;
  std::vector<KIndex> fin_;
  struct Run {
    MicroOp op;
    bool invert;
    std::uint32_t end;  // one past the run's last entry of order_
  };
  std::vector<Run> runs_;
  std::vector<LaneWords> values_;  // per kernel index, layout above
  std::vector<LaneWords> pi_;      // per PI: the assigned nibbles

  // Fault injection (see the header comment).
  std::vector<LaneWords> stem_mask_, stem_val_;  // per gate
  std::vector<LaneWords> pin_mask_, pin_val_;    // per fanin CSR slot
  std::vector<std::uint8_t> injected_;  // per gate: lanes with a fault on it
  struct LaneFault {
    KIndex site = kNoGate;  // kNoGate: fault-free
    int pin = -1;
  };
  std::array<LaneFault, kLanes> faults_{};
};

}  // namespace bist
