#pragma once
// Three-valued (0/1/X) logic: the Ternary value type used for PODEM test
// cubes, and TernarySim, the reference oracle of the ternary simulation
// layer.  One TernarySim simulates one machine; PODEM's engine (PairSim,
// 16 searches' good and faulty machines in one word per gate) is tested
// lane for lane against a pair of them per lane, one with the lane's fault
// forced.  Nothing outside the tests runs a TernarySim.
//
// The simulator is event-driven and levelized: assigning one PI only
// re-evaluates the affected cone.  Gates of any fanin count are supported.
//
// Fault injection comes in two grains, matching the stem/branch fault model:
//  - force(g, v): the gate's output net is stuck (stem fault);
//  - force_pin(g, pin, v): a single fanin connection of g is stuck (fanout
//    branch fault) — only g sees the stuck value, the driver net and its
//    other branches are untouched.
// Primary-input assignments are stored separately from forces, so
// force -> set_input -> unforce round-trips back to the assigned value.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/kernel.hpp"

namespace bist {

enum class Ternary : std::uint8_t { V0 = 0, V1 = 1, VX = 2 };

inline Ternary t_not(Ternary a) {
  if (a == Ternary::VX) return Ternary::VX;
  return a == Ternary::V0 ? Ternary::V1 : Ternary::V0;
}

/// Event-driven ternary simulator with per-gate and per-pin forced-value
/// support (used to inject the fault site value in the faulty machine).
class TernarySim {
 public:
  /// Runs over an existing kernel's flat arrays (the kernel must outlive the
  /// simulator).
  explicit TernarySim(const SimKernel& k);

  /// Reset every signal to X and clear all forces and input assignments.
  void reset();

  /// Force gate g's output to v regardless of its fanins (stem fault
  /// injection).  Takes effect immediately; wins over a PI assignment while
  /// active.
  void force(GateId g, Ternary v) { force_at(k_->index_of(g), v); }
  void unforce(GateId g) { unforce_at(k_->index_of(g)); }

  /// Force the connection into fanin `pin` of g to v (fanout-branch fault
  /// injection).  Only g's evaluation sees the stuck value.
  void force_pin(GateId g, unsigned pin, Ternary v) {
    force_pin_at(k_->index_of(g), pin, v);
  }
  void unforce_pin(GateId g, unsigned pin) {
    unforce_pin_at(k_->index_of(g), pin);
  }

  /// Assign a primary input (VX = unassign) and propagate the change through
  /// its cone.  The assignment is remembered independently of any force on
  /// the input gate and is restored when the force is removed.
  void set_input(std::size_t input_idx, Ternary v);

  /// Recompute everything from scratch (after bulk changes).
  void full_eval();

  Ternary value(GateId g) const { return values_[k_->index_of(g)]; }
  /// Value by kernel index (hot path for PODEM).
  Ternary value_at(KIndex k) const { return values_[k]; }

  const SimKernel& kernel() const { return *k_; }

 private:
  void force_at(KIndex k, Ternary v);
  void unforce_at(KIndex k);
  void force_pin_at(KIndex k, unsigned pin, Ternary v);
  void unforce_pin_at(KIndex k, unsigned pin);
  void propagate_from(KIndex k);
  Ternary compute(KIndex k) const;

  const SimKernel* k_;
  // All per-gate state below is in kernel-index space.
  std::vector<Ternary> values_;
  std::vector<Ternary> assigned_;    // PI assignments (VX elsewhere/unassigned)
  std::vector<Ternary> forced_;      // VX = not forced
  std::vector<char> has_force_;
  std::vector<Ternary> pin_forced_;  // one slot per fanin CSR entry, VX = free
  std::vector<char> has_pin_force_;  // per gate: any fanin slot forced
  // Levelized event scheduling scratch.
  std::vector<std::vector<KIndex>> level_queues_;
  std::vector<char> queued_;
};

}  // namespace bist
