#include "bist/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sim/bitpar_sim.hpp"
#include "tpg/lfsr.hpp"

namespace bist {
namespace {

std::uint64_t degree_mask(unsigned degree) {
  return degree >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << degree) - 1;
}

/// One raw register step (Lfsr::step() without the class's nonzero-seed
/// invariant — a solved seed may legitimately be all-zero).
std::uint64_t raw_step(std::uint64_t s, unsigned degree, std::uint64_t taps) {
  const std::uint64_t fb = std::uint64_t(std::popcount(s & taps) & 1);
  return ((s << 1) | fb) & degree_mask(degree);
}

}  // namespace

// ---------------------------------------------------------------------------
// MISR
// ---------------------------------------------------------------------------

unsigned misr_degree_for(std::size_t outputs) {
  return static_cast<unsigned>(std::clamp<std::size_t>(outputs, 16, 24));
}

MisrSpec misr_spec_for(std::size_t outputs) {
  MisrSpec m;
  m.degree = misr_degree_for(outputs);
  m.taps = Lfsr::primitive_taps(m.degree);
  return m;
}

std::uint64_t misr_fold(const MisrSpec& m, const BitVec& outputs) {
  std::uint64_t inj = 0;
  for (std::size_t o = 0; o < outputs.size(); ++o)
    inj ^= std::uint64_t(outputs.get(o)) << m.cls(o);
  return inj;
}

std::uint64_t misr_step(const MisrSpec& m, std::uint64_t state,
                        std::uint64_t inject) {
  return raw_step(state, m.degree, m.taps) ^ inject;
}

std::uint64_t misr_signature(const SimKernel& cut,
                             std::span<const PatternBlock> blocks,
                             const MisrSpec& m, std::uint64_t state) {
  const auto outs = cut.outputs();
  KernelSim sim(cut);
  for (const PatternBlock& blk : blocks) {
    sim.simulate(blk);
    for (std::size_t lane = 0; lane < blk.count; ++lane) {
      std::uint64_t inj = 0;
      for (std::size_t o = 0; o < outs.size(); ++o)
        inj ^= ((sim.value_at(outs[o]) >> lane) & 1) << m.cls(o);
      state = misr_step(m, state, inj);
    }
  }
  return state;
}

std::vector<Gf2Matrix> misr_stage_operators(unsigned degree,
                                            std::uint64_t taps) {
  // One step moves e_c to e_{c+1} ^ taps_c * e_0 (c < degree-1), so
  // R_0 = I and R_{c+1} = M * R_c ^ taps_c * I.
  const Gf2Matrix M = lfsr_transition(degree, taps);
  std::vector<Gf2Matrix> R{Gf2Matrix::identity(degree)};
  for (unsigned c = 1; c < degree; ++c) {
    Gf2Matrix next = M * R.back();
    if ((taps >> (c - 1)) & 1)
      for (unsigned i = 0; i < degree; ++i) next.set(i, i, !next.get(i, i));
    R.push_back(std::move(next));
  }
  return R;
}

MisrAudit::MisrAudit(const FaultSimulator& fsim, const SimKernel& cut,
                     unsigned K, std::uint64_t taps, std::size_t horizon)
    : fsim_(&fsim),
      outs_(cut.outputs().size()),
      stage_(misr_stage_operators(K, taps)),
      e0_at_(horizon),
      q_(fsim.faults().size() * outs_, 0) {
  const Gf2Matrix M = lfsr_transition(K, taps);
  std::uint64_t v = 1;
  for (std::size_t t = horizon; t-- > 0; v = M.apply(v)) e0_at_[t] = v;
}

void MisrAudit::add(std::span<const PatternBlock> blocks, std::size_t patterns,
                    std::size_t at,
                    std::span<const std::int64_t> first_detected,
                    Deltas* out) {
  if (at + patterns > e0_at_.size())
    throw std::invalid_argument("MisrAudit::add: piece beyond the horizon");
  if (patterns == 0) return;
  // First detections relative to the piece, as output_diff_sweep takes them.
  std::vector<std::int64_t> fd(first_detected.size(), -1);
  const std::int64_t begin = std::int64_t(at);
  const std::int64_t end = begin + std::int64_t(patterns);
  for (std::size_t f = 0; f < fd.size(); ++f)
    if (const std::int64_t d = first_detected[f]; d >= 0 && d < end)
      fd[f] = std::max<std::int64_t>(d - begin, 0);
  // A 64-lane diff word's contribution is the XOR of e0_at over its set
  // lanes: eight byte-indexed tables per block, rebuilt as the sweep
  // (ascending block order) moves on — table[j*256 + x] = XOR of
  // e0_at[at + b*64 + 8j + i] over the set bits i of x.
  std::vector<std::uint64_t> table(8 * 256);
  std::size_t table_block = SIZE_MAX;
  fsim_->output_diff_sweep(
      blocks, patterns, fd,
      [&](std::size_t b, std::uint32_t f,
          std::span<const FaultSimulator::OutputDiff> diffs) {
        if (b != table_block) {
          table_block = b;
          for (std::size_t j = 0; j < 8; ++j) {
            std::uint64_t* tj = table.data() + j * 256;
            for (unsigned x = 1; x < 256; ++x) {
              const std::size_t t = b * 64 + j * 8 + std::countr_zero(x);
              tj[x] = tj[x & (x - 1)] ^ (t < patterns ? e0_at_[at + t] : 0);
            }
          }
        }
        const std::size_t row = std::size_t{f} * outs_;
        for (const FaultSimulator::OutputDiff& d : diffs) {
          std::uint64_t delta = 0;
          for (std::size_t j = 0; j < 8; ++j)
            delta ^= table[j * 256 + ((d.lanes >> (8 * j)) & 255)];
          if (out)
            out->emplace_back(row + d.output, delta);
          else
            q_[row + d.output] ^= delta;
        }
      });
}

void MisrAudit::toggle(const Deltas& d) {
  for (const auto& [slot, delta] : d) q_[slot] ^= delta;
}

std::size_t MisrAudit::escapes(std::span<const std::uint16_t> map,
                               std::span<const std::uint32_t> faults) const {
  std::size_t n = 0;
  for (const std::uint32_t f : faults) {
    const std::uint64_t* qf = q_.data() + std::size_t{f} * outs_;
    std::uint64_t sig = 0;
    for (std::size_t o = 0; o < outs_; ++o)
      if (qf[o]) sig ^= stage_[map[o]].apply(qf[o]);
    n += sig == 0;
  }
  return n;
}

namespace {

/// Sim faults a stream of `patterns` patterns detects (0 <= first_detected
/// < patterns), ascending.
std::vector<std::uint32_t> detected_within(
    std::span<const std::int64_t> first_detected, std::size_t patterns) {
  std::vector<std::uint32_t> out;
  for (std::size_t f = 0; f < first_detected.size(); ++f)
    if (first_detected[f] >= 0 && first_detected[f] < std::int64_t(patterns))
      out.push_back(static_cast<std::uint32_t>(f));
  return out;
}

}  // namespace

std::vector<std::uint16_t> fold_map(const MisrSpec& m, std::size_t outputs) {
  std::vector<std::uint16_t> map(outputs);
  for (std::size_t o = 0; o < outputs; ++o)
    map[o] = static_cast<std::uint16_t>(m.cls(o));
  return map;
}

AliasingReport misr_aliasing_check(FaultSimulator& fsim, const SimKernel& cut,
                                   std::span<const PatternBlock> blocks,
                                   std::size_t patterns, const MisrSpec& m,
                                   std::span<const std::int64_t> first_detected) {
  AliasingReport rep;
  rep.bound = std::ldexp(1.0, -int(m.degree));
  if (!m.enabled() || patterns == 0) return rep;
  MisrAudit audit(fsim, cut, m.degree, m.taps, patterns);
  audit.add(blocks, patterns, 0, first_detected);
  const std::vector<std::uint32_t> checked =
      detected_within(first_detected, patterns);
  rep.detected_checked = checked.size();
  rep.escapes = audit.escapes(fold_map(m, cut.outputs().size()), checked);
  return rep;
}

std::vector<std::vector<std::uint16_t>> misr_fold_candidates(
    unsigned K, std::size_t outputs) {
  // Natural modulo fold first, then diagonal staggers (o + s*(o/K)) mod K —
  // these split the bus-aligned stride-K pairs the natural fold collapses —
  // then deterministic hashed assignments for CUTs whose output
  // correlations defeat every stagger.
  std::vector<std::vector<std::uint16_t>> maps;
  for (unsigned s = 0; s < K; ++s) {
    std::vector<std::uint16_t> map(outputs);
    for (std::size_t o = 0; o < outputs; ++o)
      map[o] = static_cast<std::uint16_t>((o + s * (o / K)) % K);
    maps.push_back(std::move(map));
  }
  for (std::uint64_t a = 1; a <= 8; ++a) {
    std::vector<std::uint16_t> map(outputs);
    for (std::size_t o = 0; o < outputs; ++o) {
      std::uint64_t x = (o + 1) * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      x *= 0x94D049BB133111EBull;
      x ^= x >> 31;
      map[o] = static_cast<std::uint16_t>(x % K);
    }
    maps.push_back(std::move(map));
  }
  return maps;
}

MisrSpec pick_misr_fold(
    MisrSpec base, std::size_t outputs,
    const std::function<std::size_t(std::span<const std::uint16_t>)>& escapes) {
  std::vector<std::vector<std::uint16_t>> maps =
      misr_fold_candidates(base.degree, outputs);
  std::size_t best = 0;
  std::size_t best_esc = escapes(maps[0]);
  for (std::size_t mi = 1; mi < maps.size() && best_esc != 0; ++mi)
    if (const std::size_t e = escapes(maps[mi]); e < best_esc) {
      best = mi;
      best_esc = e;
    }
  if (best == 0) return base;  // natural fold clean (or nothing better)
  base.fold = std::move(maps[best]);
  return base;
}

MisrSpec choose_misr_fold(FaultSimulator& fsim, const SimKernel& cut,
                          std::span<const PatternBlock> blocks,
                          std::size_t patterns,
                          std::span<const std::int64_t> first_detected,
                          MisrSpec base) {
  const std::size_t outs = cut.outputs().size();
  if (!base.enabled() || patterns == 0 || outs == 0) return base;
  MisrAudit audit(fsim, cut, base.degree, base.taps, patterns);
  audit.add(blocks, patterns, 0, first_detected);
  const std::vector<std::uint32_t> checked =
      detected_within(first_detected, patterns);
  return pick_misr_fold(std::move(base), outs, [&](auto map) {
    return audit.escapes(map, checked);
  });
}

// ---------------------------------------------------------------------------
// Seed schedules
// ---------------------------------------------------------------------------

std::size_t CompressedTopoff::fallback_rows() const {
  std::size_t n = 0;
  for (const std::uint8_t f : fallback) n += f;
  return n;
}

std::vector<std::uint32_t> CompressedTopoff::offsets_used() const {
  std::vector<std::uint32_t> offs;
  for (const SeedEvent& e : seeds) offs.push_back(e.offset);
  std::sort(offs.begin(), offs.end());
  offs.erase(std::unique(offs.begin(), offs.end()), offs.end());
  return offs;
}

RowCompression compress_cube(std::span<const Ternary> cube, unsigned degree,
                             std::uint64_t taps,
                             const std::function<bool()>& free_bit) {
  const std::size_t w = cube.size();
  const unsigned D = degree;
  RowCompression rc;

  // Segmentation: walk the care bits in shift order through an incremental
  // eliminator over the current seed's variables.  reg[j] is the symbolic
  // coefficient mask of register bit j; the pre-shift output stage reg[D-1]
  // is stream bit t.  On an inconsistency at shift t (only possible at
  // t >= segment_start + D: the first D rows after a load are the identity)
  // the solver reseeds at the last D-aligned boundary at or below t and
  // replays the care bits from there, so progress is guaranteed.
  std::vector<std::pair<std::uint32_t, Gf2Solver>> segments;  // (offset, sys)
  if (w > D) {
    std::uint32_t start = 0;
    while (true) {
      Gf2Solver sys(D);
      Gf2Solver at_boundary;  // snapshot at the last D-aligned boundary
      std::vector<std::uint64_t> reg(D);
      for (unsigned j = 0; j < D; ++j) reg[j] = std::uint64_t{1} << j;
      std::uint32_t conflict_at = 0;
      bool conflicted = false;
      for (std::size_t t = start; t < w; ++t) {
        if (t > start && (t % D) == 0) at_boundary = sys;
        if (cube[t] != Ternary::VX) {
          const bool bit = cube[t] == Ternary::V1;
          if (sys.add(reg[D - 1], bit) == Gf2Add::Inconsistent) {
            conflict_at = static_cast<std::uint32_t>((t / D) * D);
            conflicted = true;
            break;
          }
        }
        // step: fb = parity over tapped stages, shift up
        std::uint64_t fb = 0;
        for (unsigned j = 0; j < D; ++j)
          if ((taps >> j) & 1) fb ^= reg[j];
        for (unsigned j = D; j-- > 1;) reg[j] = reg[j - 1];
        reg[0] = fb;
      }
      if (!conflicted) {
        segments.emplace_back(start, std::move(sys));
        break;
      }
      segments.emplace_back(start, std::move(at_boundary));
      start = conflict_at;
    }
  }

  // Fallback by cost: seeds must strictly beat the decoded row.
  rc.fallback = w <= D || segments.size() * D >= w;
  if (rc.fallback) {
    BitVec p(w);
    for (std::size_t i = 0; i < w; ++i) {
      const bool bit =
          cube[i] == Ternary::VX ? free_bit() : cube[i] == Ternary::V1;
      p.set(i, bit);
    }
    rc.pattern = std::move(p);
    return rc;
  }

  for (const auto& [offset, sys] : segments) {
    std::uint64_t free_vals = 0;
    for (unsigned j = 0; j < D; ++j)
      free_vals |= std::uint64_t(free_bit()) << j;
    SeedEvent e;
    e.offset = offset;
    e.seed = sys.solve(free_vals);
    rc.seeds.push_back(e);
  }
  rc.pattern = expand_row(rc.seeds, D, taps, w);
  return rc;
}

std::uint64_t step_row(std::span<const SeedEvent> seeds, unsigned degree,
                       std::uint64_t taps, std::size_t width,
                       std::uint64_t state, BitVec* pattern) {
  std::size_t next = 0;
  for (std::size_t t = 0; t < width; ++t) {
    if (next < seeds.size() && seeds[next].offset == t)
      state = seeds[next++].seed & degree_mask(degree);
    if (pattern) pattern->set(t, (state >> (degree - 1)) & 1);
    state = raw_step(state, degree, taps);
  }
  return state;
}

BitVec expand_row(std::span<const SeedEvent> seeds, unsigned degree,
                  std::uint64_t taps, std::size_t width) {
  BitVec p(width);
  step_row(seeds, degree, taps, width, 0, &p);
  return p;
}

}  // namespace bist
