#pragma once
// Test-data compression layer: LFSR reseeding on the input side, MISR
// signature compaction on the output side — the architecture move that
// replaces the fully decoded top-off ROM (width bits per stored pattern)
// with degree-bit seeds expanded by the pattern generator itself, after the
// asymmetric-polynomial reseeding exemplar (arXiv:1711.08458), with the
// schedule selected under the compressed cost as in hybrid-BIST scheduling
// (arXiv:1711.08974).
//
// Input side (seeds).  A top-off pattern of width w is w consecutive stream
// bits of the wrapper's unrolled LFSR.  Stream bit t after a seed load is a
// known GF(2) linear function of the seed (transition-matrix expansion, see
// util/gf2), so the care bits of a PODEM cube become linear equations on the
// seed: compress_cube() walks the cube in shift order through an incremental
// eliminator.  The first `degree` equations after a load are identity rows
// — a conflict can only appear at shift >= load + degree — so when the
// system goes inconsistent the solver reseeds at the last degree-aligned
// window boundary and always terminates.  Each row therefore carries one
// seed at offset 0 plus extra seeds at offsets k*degree only when one seed
// cannot cover the cube.  Free variables take bits from the caller's X-fill
// source, so seed expansion doubles as the random fill of the mixed scheme.
// Rows whose seed schedule would store at least as many bits as the decoded
// pattern (in particular any CUT with width <= degree) fall back to a
// decoded ROM row, priced and synthesized exactly like the legacy path.
//
// Output side (MISR).  A degree-K multiple-input signature register with a
// primitive feedback polynomial folds the CUT outputs (output o XORs into
// stage o mod K) every cycle; the golden signature is computed by good-
// machine simulation over the exact applied stream.  Aliasing: a detected
// fault escapes iff its accumulated output-difference contribution is zero
// — probability 2^-K for a random difference stream — and
// misr_aliasing_check() verifies *empirically* that no detected fault in
// the final fault list aliases on the applied set, using the MISR's
// linearity (signature_fault = golden XOR sum over diff bits of
// M^(cycles-1-t) * fold(output)).

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "sim/ternary_sim.hpp"
#include "util/bitvec.hpp"
#include "util/gf2.hpp"

namespace bist {

// ---------------------------------------------------------------------------
// MISR
// ---------------------------------------------------------------------------

/// MISR configuration: Fibonacci shift register in the Lfsr class's bit
/// convention (stage 0 receives the tap parity), degree 0 = no MISR.
///
/// `fold` is the output-to-stage assignment.  Empty means the natural
/// modulo fold (output o into stage o mod degree).  The natural fold has a
/// structural blind spot: a fault observed *only* on pairs of outputs that
/// share a stage and flip simultaneously injects nothing at all, and
/// escapes at any stream length regardless of the 2^-degree bound — wide
/// bus-structured CUTs (outputs o and o+degree in one cone) hit this in
/// practice.  choose_misr_fold() audits a deterministic candidate family of
/// assignments against the real fault list and picks one with no escapes.
struct MisrSpec {
  unsigned degree = 0;
  std::uint64_t taps = 0;
  /// Per-output stage assignment (values < degree); empty = o mod degree.
  std::vector<std::uint16_t> fold;
  bool enabled() const { return degree != 0; }
  /// Stage receiving output o.
  unsigned cls(std::size_t o) const {
    return fold.empty() ? static_cast<unsigned>(o % degree) : fold[o];
  }
  bool operator==(const MisrSpec&) const = default;
};

/// Signature-register degree for a CUT with `outputs` primary outputs:
/// clamp(outputs, 16, 24).  Small enough not to dominate tiny wrappers,
/// large enough that the 2^-degree aliasing bound makes escapes on the
/// surrogate family's fault lists improbable (checked empirically; a floor
/// of 8 measurably aliases — ~350 checked faults at 2^-8 expect more than
/// one temporal escape, and c432s shows exactly that).
unsigned misr_degree_for(std::size_t outputs);

/// misr_degree_for() with the matching primitive feedback taps.
MisrSpec misr_spec_for(std::size_t outputs);

/// Materialize m's output-to-stage assignment as an explicit map.
std::vector<std::uint16_t> fold_map(const MisrSpec& m, std::size_t outputs);

/// Fold one cycle's CUT output values into the injection word: output o
/// XORs into stage m.cls(o).
std::uint64_t misr_fold(const MisrSpec& m, const BitVec& outputs);

/// One MISR cycle: shift with feedback parity, XOR the injection word.
std::uint64_t misr_step(const MisrSpec& m, std::uint64_t state,
                        std::uint64_t inject);

/// Stage operators of a degree-`degree` MISR with feedback `taps`: R[c] is
/// the polynomial in the transition matrix M with R[c] * e_0 = e_c, so it
/// commutes with M and M^j * e_c = R[c] * M^j * e_0.  The fold audit uses
/// this to accumulate every output's signature contribution once, as if it
/// were injected at stage 0, and to place it at any stage afterwards.
std::vector<Gf2Matrix> misr_stage_operators(unsigned degree,
                                            std::uint64_t taps);

/// Golden signature: good-machine simulation of `cut` over the applied
/// pattern stream (already packed into blocks; each block's `count` gives
/// its live lanes), folding every cycle's outputs, starting from `state` —
/// chainable, so LFSR phase and top-off phase compose without materializing
/// one concatenated stream.
std::uint64_t misr_signature(const SimKernel& cut,
                             std::span<const PatternBlock> blocks,
                             const MisrSpec& m, std::uint64_t state = 0);

/// Empirical aliasing audit over an applied pattern set.
struct AliasingReport {
  std::size_t detected_checked = 0;  ///< faults with first_detected >= 0
  std::size_t escapes = 0;           ///< detected faults whose signature
                                     ///< equals the golden signature
  double bound = 0;                  ///< 2^-degree single-fault bound
};

/// For every detected fault (0 <= first_detected[i] < patterns, the first
/// detecting pattern as run() over the same `blocks` reports it),
/// accumulate its output-difference MISR contribution and count the faults
/// whose contribution cancels to zero (signature == golden).  Exact —
/// per-output difference words come from the fault simulator's stem stage
/// (FaultSimulator::output_diff_sweep) — and independent of the golden
/// value itself by MISR linearity.  `patterns` is the stream length (the
/// last block may be partial).
AliasingReport misr_aliasing_check(FaultSimulator& fsim, const SimKernel& cut,
                                   std::span<const PatternBlock> blocks,
                                   std::size_t patterns, const MisrSpec& m,
                                   std::span<const std::int64_t> first_detected);

/// The deterministic candidate family of output-to-stage assignments for a
/// degree-K MISR over `outputs` outputs, in preference order: the natural
/// fold (o mod K), the K-1 diagonal staggers, then 8 hashed assignments.
std::vector<std::vector<std::uint16_t>> misr_fold_candidates(
    unsigned K, std::size_t outputs);

/// Running fold-audit accumulator: per (sim fault, output) the map-free
/// stage-0 signature contribution
///   q_o = sum_t d_o,t * M^(horizon-1-t) * e_0
/// of the output-difference bits fed so far, every cycle t weighed against
/// one fixed reference cycle horizon-1.  A fault's signature difference
/// under fold map m after a stream of n <= horizon cycles is
/// M^(n-horizon) * sum_o R_m(o) * q_o (e_c = R_c * e_0, R_c commutes with
/// M), and M is invertible, so escapes() scores any map at any stream end
/// without re-weighing.  The stream may be fed in pieces at any cycle
/// offsets, which lets one accumulator serve a prefix that grows from
/// point to point while each point's own suffix is toggled in and out.
class MisrAudit {
 public:
  /// Output differences of one fed piece: (accumulator slot, delta) pairs.
  using Deltas = std::vector<std::pair<std::size_t, std::uint64_t>>;

  /// Degree-`K` MISR with feedback `taps` over streams of at most `horizon`
  /// cycles; `fsim` must outlive the audit.
  MisrAudit(const FaultSimulator& fsim, const SimKernel& cut, unsigned K,
            std::uint64_t taps, std::size_t horizon);

  /// Feed the first `patterns` patterns of `blocks`, which sit at stream
  /// cycles [at, at + patterns).  `first_detected` is per sim fault in
  /// whole-stream cycles (-1 = never): a fault detected before the piece
  /// joins at its first block, one the piece first detects at that
  /// pattern's block, a later or undetected one not at all.  Accumulated in
  /// place, or only appended to `*out` when it is given (see toggle()).
  void add(std::span<const PatternBlock> blocks, std::size_t patterns,
           std::size_t at, std::span<const std::int64_t> first_detected,
           Deltas* out = nullptr);

  /// XOR a fed piece's deltas into the accumulator; toggling twice removes
  /// them again.
  void toggle(const Deltas& d);

  /// Faults among `faults` (sim-fault indices) whose signature difference
  /// cancels under fold map `map`.
  std::size_t escapes(std::span<const std::uint16_t> map,
                      std::span<const std::uint32_t> faults) const;

 private:
  const FaultSimulator* fsim_;
  std::size_t outs_;
  std::vector<Gf2Matrix> stage_;     ///< R_c per stage
  std::vector<std::uint64_t> e0_at_; ///< M^(horizon-1-t) * e_0 per cycle t
  std::vector<std::uint64_t> q_;     ///< sim faults x outputs
};

/// The fold selection rule over misr_fold_candidates(): return `base` with
/// the first assignment whose escape count (`escapes(map)`) is zero,
/// scoring the natural fold first so clean CUTs keep the canonical wiring
/// and the rest only while no clean map has been found.  When no candidate
/// is clean the one with the fewest escapes wins, the earliest on a tie;
/// verify_wrapper/bench report the residue honestly.
MisrSpec pick_misr_fold(
    MisrSpec base, std::size_t outputs,
    const std::function<std::size_t(std::span<const std::uint16_t>)>& escapes);

/// Audited fold selection over one applied stream: pick_misr_fold() scored
/// by a MisrAudit fed the whole stream — ONE fault-propagation pass serves
/// every candidate.  Callers audit the exact applied stream of the point
/// being signed off — in particular including the top-off patterns, since
/// the structural escapers are random-pattern-resistant faults the
/// pseudo-random phase never detects (and so never audits).
MisrSpec choose_misr_fold(FaultSimulator& fsim, const SimKernel& cut,
                          std::span<const PatternBlock> blocks,
                          std::size_t patterns,
                          std::span<const std::int64_t> first_detected,
                          MisrSpec base);

// ---------------------------------------------------------------------------
// Seed schedules
// ---------------------------------------------------------------------------

/// One reseed event: load `seed` into the LFSR when top-off row `row` is
/// active, at unroll offset `offset` (0 = before the row's first stream
/// bit; always a multiple of the LFSR degree).
struct SeedEvent {
  std::uint32_t row = 0;
  std::uint32_t offset = 0;
  std::uint64_t seed = 0;
  bool operator==(const SeedEvent&) const = default;
};

/// Compressed representation of one scheduled point's top-off set, carried
/// from the sweep through the plan into synthesis and verification.  The
/// stored patterns themselves stay in MixedSchemeResult/BistPlan::topoff —
/// for seeded rows they are *defined* as the seed expansion (bit-identical
/// by construction, re-proved by verify_wrapper).
struct CompressedTopoff {
  bool enabled = false;
  unsigned degree = 0;       ///< seed width = the plan's LFSR degree
  std::vector<SeedEvent> seeds;        ///< sorted by (row, offset)
  std::vector<std::uint8_t> fallback;  ///< per row: 1 = decoded ROM row
  MisrSpec misr;
  std::uint64_t golden = 0;  ///< expected signature after the full stream
  /// CUT primary-output count (fixes the MISR fold structure, so the area
  /// model can price the injection XORs without the kernel in hand).
  std::size_t cut_outputs = 0;

  std::uint64_t seed_rom_bits() const { return seeds.size() * degree; }
  std::size_t fallback_rows() const;
  /// Distinct reseed offsets in use, ascending (one load mux per offset).
  std::vector<std::uint32_t> offsets_used() const;
  bool operator==(const CompressedTopoff&) const = default;
};

/// compress_cube() result for one top-off row.
struct RowCompression {
  BitVec pattern;                ///< stored/applied pattern (expansion or
                                 ///< decoded fallback fill)
  std::vector<SeedEvent> seeds;  ///< offsets ascending; row field left 0
  bool fallback = false;
};

/// Solve one PODEM cube into a reseeding schedule (or a decoded fallback
/// row when seeds would not save storage).  `free_bit` supplies X-fill bits:
/// consumed `degree` times per seed (seeded rows, segment order then
/// variable order; only the free-variable bits take effect) or once per X
/// cube bit (fallback rows, cube order) — deterministic either way.
RowCompression compress_cube(std::span<const Ternary> cube, unsigned degree,
                             std::uint64_t taps,
                             const std::function<bool()>& free_bit);

/// One top-off row through the wrapper's LFSR: `width` shifts from register
/// `state`, reloading at each event's offset, exactly as the synthesized
/// load muxes do.  The row's stream bits go to `*pattern` (at least `width`
/// bits) when given.  Returns the register after the row; verify_wrapper
/// carries it through the ROM phase this way, proving each seeded row's
/// stored pattern as it goes.
std::uint64_t step_row(std::span<const SeedEvent> seeds, unsigned degree,
                       std::uint64_t taps, std::size_t width,
                       std::uint64_t state, BitVec* pattern = nullptr);

/// A row's seed schedule expanded from an empty register: step_row()'s
/// `width` stream bits.  A seeded row loads at offset 0, so this is the
/// pattern it applies whatever the register held.
BitVec expand_row(std::span<const SeedEvent> seeds, unsigned degree,
                  std::uint64_t taps, std::size_t width);

}  // namespace bist
