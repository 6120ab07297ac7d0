#pragma once
// Gate-cost area model for the mixed-scheme BIST hardware: the maximal-length
// LFSR, the top-off pattern storage (decoded-logic ROM rows and/or reseeding
// seed ROM), the phase controller (cycle counter + row decode + reseed
// selects), the per-input pattern muxing, and the MISR response compactor.
//
// Costs are expressed in gate equivalents (GE) with pluggable per-function
// weights (AreaModel), so reseeding-style architectures with different
// ROM/LFSR cost ratios can re-price the trade-off without touching the
// scheduler.  Two views are provided:
//
//   netlist_area()        exact accounting of an existing gate-level netlist
//                         (n-ary gates priced as n-1 two-input gates)
//   estimate_bist_area()  closed-form estimate of the BIST blocks for a
//                         candidate (LFSR length, top-off set) point, cheap
//                         enough to evaluate at every sweep point; it prices
//                         exactly the structure synthesize_bist_wrapper()
//                         emits (the differential test asserts the totals
//                         reconcile per block), for the compressed
//                         architecture (LFSR reseeding + MISR) and the
//                         legacy fully decoded ROM alike.
//
// Storage is tracked separately from logic: `rom_bits` (decoded pattern bits
// actually stored), `seed_rom_bits` (reseeding seeds x LFSR degree) and
// `state_bits` (LFSR + counter + MISR flip-flops) sum to `area_bits()`, the
// quantity the scheduler's weighted objective trades against test time.

#include <cstdint>
#include <span>
#include <vector>

#include "bist/compress.hpp"
#include "netlist/netlist.hpp"
#include "util/bitvec.hpp"

namespace bist {

/// Per-function gate-equivalent weights.  Defaults follow the usual
/// standard-cell convention (NAND2 = 1 GE).
struct AreaModel {
  double and2 = 1.0;      ///< 2-input AND/NAND/OR/NOR
  double xor2 = 2.0;      ///< 2-input XOR/XNOR
  double not1 = 0.5;      ///< inverter
  double buf1 = 0.5;      ///< buffer
  double flipflop = 4.0;  ///< one state bit (LFSR stage, counter bit)
};

/// GE cost of one gate under the model; n-ary gates decompose into n-1
/// two-input gates.  Inputs and constants are free.
double gate_area(const AreaModel& m, GateType t, std::size_t fanin_count);

/// Sum of gate_area over every logic gate of the netlist (primary inputs
/// excluded).  No flip-flop term: a combinational netlist has no state.
double netlist_area(const AreaModel& m, const Netlist& n);

/// Width of the BIST cycle counter: enough bits to count 0..total_cycles-1,
/// at least 1.
std::size_t counter_width(std::size_t total_cycles);

/// Area breakdown of one BIST configuration, in GE plus storage-bit counts.
struct BistArea {
  double lfsr = 0;        ///< state FFs + per-pattern feedback XOR networks
  double rom = 0;         ///< decoded-logic ROM OR plane (under compression:
                          ///< fallback rows only)
  double seed_rom = 0;    ///< seed-ROM OR planes (compressed mode)
  double controller = 0;  ///< counter FFs + increment + row decode + reseed
                          ///< load selects
  double mux = 0;         ///< per-CUT-input pattern muxing + reseed load
                          ///< muxes into the LFSR chain
  double misr = 0;        ///< MISR FFs + fold XORs + signature comparator
  /// Decoded pattern bits actually stored: patterns x width legacy; fallback
  /// rows x width under compression.
  std::size_t rom_bits = 0;
  std::size_t seed_rom_bits = 0;  ///< reseeding seeds x LFSR degree
  /// MISR degree — a reporting view of the compactor's flip-flops, already
  /// counted inside state_bits (NOT added again by area_bits()).
  std::size_t misr_bits = 0;
  std::size_t state_bits = 0;  ///< LFSR degree + counter width + MISR degree

  double total() const {
    return lfsr + rom + seed_rom + controller + mux + misr;
  }
  /// Storage bits: the scheduler's area term (a*test_time + b*area_bits).
  std::size_t area_bits() const {
    return rom_bits + seed_rom_bits + state_bits;
  }
};

/// Closed-form estimate for a candidate point.  `topoff` is the point's
/// stored pattern set (its size and per-column set-bit counts price the
/// decoded ROM exactly; the decode/mux terms are structural) and
/// `lfsr_patterns` the pseudo-random phase length (it sizes the cycle counter
/// together with the top-off count).  With comp.enabled it prices the
/// reseeding datapath (seed-ROM OR planes, per-offset load muxes and
/// selects), the decoded fallback rows and the MISR (fold XORs sized by
/// comp.cut_outputs, comparator sized by comp.golden) exactly as
/// synthesize_bist_wrapper emits them; a disabled `comp` (e.g.
/// CompressedTopoff{}) is the legacy architecture — every row decoded, no
/// seeds, no MISR.  Deterministic pure function of its arguments.
BistArea estimate_bist_area(const AreaModel& m, unsigned lfsr_degree,
                            std::uint64_t lfsr_taps, std::size_t cut_inputs,
                            std::span<const BitVec> topoff,
                            std::size_t lfsr_patterns,
                            const CompressedTopoff& comp);

}  // namespace bist
