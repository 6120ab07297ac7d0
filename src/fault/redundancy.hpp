#pragma once
// Untestability proofs by implication, ahead of the PODEM search.
//
// A test for a single stuck-at fault must, in the good machine,
//  - drive the faulted line to the opposite of its stuck value;
//  - for a branch fault, hold every other pin of the site gate at its
//    non-controlling value (the effect enters that gate on one pin only);
//  - hold the off-path inputs of the fanout-free path from the site up to
//    its stem at their non-controlling values (each gate of that path has a
//    single fanout, so the effect must pass through it);
//  - hold every input outside TFO(stem) of every post-dominator of the stem
//    at its non-controlling value (every path from the stem to an output
//    crosses it, and an input outside the fault's cone carries the same
//    value in both machines).
// These are mandatory assignments in the sense of SOCRATES (Schulz et al.
// 1988): every test satisfies them.  The check assigns them and runs
// three-valued direct implication, forward and backward, to a fixpoint.  A
// conflict means no input pattern satisfies them all, so no test exists; a
// fault whose stem reaches no output is untestable outright.  The converse
// does not hold: a fault the check cannot prove may still be untestable.
//
// The verdict depends only on (kernel, fault): implication to a fixpoint
// finds a conflict whatever the order of its steps.  Faults that share a
// stem share its post-dominator assignments, so the check implies those
// once per stem and undoes to them for each fault; checking the faults of
// one stem back to back is the fast order.
//
// Implication is incremental: per gate, the check keeps a tally of its
// open inputs and of its inputs at the controlling value (for XOR, of its
// inputs at 1, whose parity is the binary inputs' parity).  An assigned
// value enters its fanouts' tallies when the propagation queue reaches it
// and leaves them on undo, so a gate's rule decides in O(1) and reads its
// fanins only when it assigns one of them.  When the stem's assignments
// leave TFO(stem) unassigned, forward implication inside TFO(stem) is
// skipped: it could only derive values there, which neither conflict nor
// imply anything back, so the same faults are proven.

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"

namespace bist {

/// What implication and PODEM's backtrace read of a gate, lowered from the
/// kernel's micro-ops: sources (inputs, constants) have no rule, the AND/OR
/// family has a controlling value, XOR computes parity and BUF/NOT copy
/// their input; each up to an output inversion.
struct GateRule {
  enum class Kind : std::uint8_t { Source, AndOr, Xor, Copy };
  Kind kind = Kind::Source;
  std::uint8_t ctrl = 0;  ///< AndOr: the controlling input value
  std::uint8_t inv = 0;   ///< 1: the output inverts the reduction
};

class RedundancyCheck {
 public:
  /// The kernel must outlive the check.
  explicit RedundancyCheck(const SimKernel& k);

  /// True iff the implication proves f untestable.  Throws
  /// std::out_of_range on a fault with a bad pin.
  bool untestable(const Fault& f);

  /// The rule of every kernel gate (kernel order); PODEM's backtrace reads
  /// the same table.
  const std::vector<GateRule>& rules() const { return rule_; }

 private:
  using Kind = GateRule::Kind;
  static constexpr std::uint8_t kX = 2;
  // Per gate, over the inputs whose value propagate() has applied: the
  // open ones (not yet applied), and those at the value `counted` (the
  // controlling value of the AND/OR family, 1 for XOR, kX otherwise).
  struct Tally {
    std::uint32_t open = 0;
    std::uint32_t hits = 0;
    std::uint8_t counted = kX;
  };

  void enter(KIndex stem);
  /// Record u = v (u was X) on the trail.
  void set(KIndex u, std::uint8_t v);
  /// u takes value v; false on a conflict with its value.
  bool assign(KIndex u, std::uint8_t v);
  /// As assign, for g's value derived forward from its inputs: once the
  /// inputs decide a gate, neither its own rule nor a later input can
  /// imply anything more there.
  bool derive(KIndex g, std::uint8_t v);
  /// Each off-path input of g (every fanin but `on`) at g's
  /// non-controlling value, when g has one.
  bool sensitize(KIndex g, KIndex on);
  bool imply(KIndex g);
  /// Runs the rules of every gate assigned since trail_[applied_] to a
  /// fixpoint; false on a conflict.
  bool propagate();
  void undo(std::size_t mark);

  const SimKernel* k_;
  // Immediate post-dominator (gate_count(): the virtual sink every output
  // feeds; kNoGate: no path to an output), and per gate its rule.
  std::vector<KIndex> ipdom_;
  std::vector<GateRule> rule_;
  std::vector<Tally> tally_;

  std::vector<std::uint8_t> val_;  // good-machine value: 0, 1 or kX
  std::vector<std::uint8_t> derived_;  // value set by derive()
  std::vector<KIndex> trail_;      // assigned gates, in order
  std::size_t applied_ = 0;        // trail prefix counted in the tallies
  std::vector<KIndex> work_;       // TFO walk
  std::vector<std::uint32_t> tfo_; // == stamp_: in TFO of the entered stem
  std::uint32_t stamp_ = 0;
  std::size_t base_ = 0;           // trail size with the constants implied
  std::size_t mark_ = 0;           // trail size with the stem's chain implied
  KIndex stem_ = kNoGate;          // the entered stem
  bool stem_conflict_ = false;     // its chain alone is unsatisfiable
  bool skip_tfo_ = false;          // its chain left TFO(stem) unassigned
};

}  // namespace bist
