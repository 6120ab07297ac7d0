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

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"

namespace bist {

class RedundancyCheck {
 public:
  /// The kernel must outlive the check.
  explicit RedundancyCheck(const SimKernel& k);

  /// True iff the implication proves f untestable.  Throws
  /// std::out_of_range on a fault with a bad pin.
  bool untestable(const Fault& f);

 private:
  static constexpr std::uint8_t kX = 2;
  // What implication knows of a gate: sources (inputs, constants) have no
  // rule, the AND/OR family has a controlling value, XOR computes parity
  // and BUF/NOT copy their input; each up to an output inversion.
  enum class Kind : std::uint8_t { Source, AndOr, Xor, Copy };

  void enter(KIndex stem);
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
  /// Runs the rules of every gate assigned since trail_[from] to a
  /// fixpoint; false on a conflict.
  bool propagate(std::size_t from);
  void undo(std::size_t mark);

  const SimKernel* k_;
  // Immediate post-dominator (gate_count(): the virtual sink every output
  // feeds; kNoGate: no path to an output), and per gate its kind, the
  // controlling value of its reduction (AND/OR family) and its inversion.
  std::vector<KIndex> ipdom_;
  std::vector<Kind> kind_;
  std::vector<std::uint8_t> ctrl_, inv_;

  std::vector<std::uint8_t> val_;  // good-machine value: 0, 1 or kX
  std::vector<std::uint8_t> derived_;  // value set by derive()
  std::vector<KIndex> trail_;      // assigned gates, in order
  std::vector<KIndex> work_;       // TFO walk
  std::vector<std::uint32_t> tfo_; // == stamp_: in TFO of the entered stem
  std::uint32_t stamp_ = 0;
  std::size_t base_ = 0;           // trail size with the constants implied
  std::size_t mark_ = 0;           // trail size with the stem's chain implied
  KIndex stem_ = kNoGate;          // the entered stem
  bool stem_conflict_ = false;     // its chain alone is unsatisfiable
};

}  // namespace bist
