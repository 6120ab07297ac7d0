#include "bist/compress.hpp"

#include <algorithm>
#include <array>
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
  std::array<std::uint64_t, 64> inject;
  for (const PatternBlock& blk : blocks) {
    sim.simulate(blk);
    // inject[c] lane t: stage c's injection bit at cycle t; transposed,
    // inject[t] is cycle t's injection word.
    inject.fill(0);
    for (std::size_t o = 0; o < outs.size(); ++o)
      inject[m.cls(o)] ^= sim.value_at(outs[o]);
    transpose64(inject);
    for (std::size_t t = 0; t < blk.count; ++t)
      state = misr_step(m, state, inject[t]);
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
      nbytes_((K + 7) / 8),
      stage_(std::size_t{K} * nbytes_ * 256, 0),
      e0_at_(horizon),
      q_(fsim.faults().size() * outs_, 0),
      po_offset_(cut.gate_count() + 1, 0),
      po_(outs_) {
  // One register step is M applied to the state, so stepping e_0 walks its
  // powers.
  std::uint64_t v = 1;
  for (std::size_t t = horizon; t-- > 0; v = raw_step(v, K, taps))
    e0_at_[t] = v;
  // Byte table i of stage c maps x to R_c * (x << 8i): each entry is one
  // XOR of a smaller entry and a column of R_c, so the tables cost K^2
  // applies in all.
  const std::vector<Gf2Matrix> R = misr_stage_operators(K, taps);
  for (unsigned c = 0; c < K; ++c)
    for (unsigned i = 0; i < nbytes_; ++i) {
      std::uint64_t col[8] = {};
      for (unsigned j = 0; j < 8 && 8 * i + j < K; ++j)
        col[j] = R[c].apply(std::uint64_t{1} << (8 * i + j));
      std::uint64_t* t = stage_.data() + (std::size_t{c} * nbytes_ + i) * 256;
      for (unsigned x = 1; x < 256; ++x)
        t[x] = t[x & (x - 1)] ^ col[std::countr_zero(x)];
    }
  // Output gate -> its POs, as a CSR over kernel indices.
  const auto outs = cut.outputs();
  for (const KIndex g : outs) ++po_offset_[g + 1];
  for (std::size_t g = 0; g < cut.gate_count(); ++g)
    po_offset_[g + 1] += po_offset_[g];
  std::vector<std::uint32_t> fill(po_offset_.begin(), po_offset_.end() - 1);
  for (std::size_t o = 0; o < outs_; ++o)
    po_[fill[outs[o]]++] = static_cast<std::uint32_t>(o);
}

void MisrAudit::add(std::span<const PatternBlock> blocks, std::size_t patterns,
                    std::size_t at,
                    std::span<const std::int64_t> first_detected,
                    Deltas* out) {
  if (at + patterns > e0_at_.size())
    throw std::invalid_argument("MisrAudit::add: piece beyond the horizon");
  if (patterns == 0) return;
  blocks = blocks.first(std::min(blocks.size(), (patterns + 63) / 64));
  std::size_t held = 0;
  for (const PatternBlock& b : blocks) held += b.count;
  if (held != patterns)
    throw std::invalid_argument("MisrAudit::add: blocks do not hold the piece");
  // Join blocks relative to the piece.
  std::vector<std::uint32_t> join(first_detected.size(),
                                  OutputDiffSweep::kNever);
  const std::int64_t begin = std::int64_t(at);
  const std::int64_t end = begin + std::int64_t(patterns);
  for (std::size_t f = 0; f < join.size(); ++f)
    if (const std::int64_t d = first_detected[f]; d >= 0 && d < end)
      join[f] = static_cast<std::uint32_t>(
          std::max(d - begin, std::int64_t{0}) / 64);
  const Piece piece{0, at};
  add_pieces(blocks, {&piece, 1}, join,
             out ? std::span<Deltas>(out, 1) : std::span<Deltas>());
}

void MisrAudit::add_pieces(std::span<const PatternBlock> blocks,
                           std::span<const Piece> pieces,
                           std::span<const std::uint32_t> join,
                           std::span<Deltas> out) {
  if (!out.empty() && out.size() != pieces.size())
    throw std::invalid_argument("MisrAudit::add_pieces: one Deltas per piece");
  if (pieces.empty()) return;
  // Stream cycle of lane 0 and piece of every block.
  std::vector<std::size_t> cycle(blocks.size());
  std::vector<std::uint32_t> piece_of(blocks.size());
  for (std::size_t p = 0; p < pieces.size(); ++p) {
    const std::size_t end =
        p + 1 < pieces.size() ? pieces[p + 1].first_block : blocks.size();
    if (pieces[p].first_block > end || (p == 0 && pieces[p].first_block != 0))
      throw std::invalid_argument("MisrAudit: pieces out of order");
    std::size_t at = pieces[p].at;
    for (std::size_t b = pieces[p].first_block; b < end; ++b) {
      cycle[b] = at;
      piece_of[b] = static_cast<std::uint32_t>(p);
      at += blocks[b].count;
    }
    if (at > e0_at_.size())
      throw std::invalid_argument("MisrAudit: piece beyond the horizon");
  }

  // A 64-lane diff word's contribution is the XOR of e0_at over its set
  // lanes: eight byte-indexed tables per block, built on the block's first
  // nonzero diff — table[k*256 + x] = XOR of e0_at[cycle + 8k + i] over the
  // set bits i of x.
  std::vector<std::uint64_t> table(8 * 256);
  OutputDiffSweep sweep(*fsim_, blocks, join);
  while (sweep.next()) {
    const auto stems = sweep.stems();
    const auto words = sweep.words();
    const auto hits = sweep.hits();
    for (std::size_t j = 0; j < sweep.group_blocks(); ++j) {
      const std::size_t b = sweep.first_block() + j;
      Deltas* sink = out.empty() ? nullptr : &out[piece_of[b]];
      bool table_built = false;
      std::size_t w = 0, h = 0;
      for (const OutputDiffSweep::Stem& st : stems) {
        for (; w < st.words_end; ++w) {
          const std::uint64_t sw = w_sub(words[w].second, j);
          if (!sw) continue;
          const std::size_t row = std::size_t{words[w].first} * outs_;
          for (std::size_t i = h; i < st.hits_end; ++i) {
            const std::uint64_t d = sw & w_sub(hits[i].second, j);
            if (!d) continue;
            if (!table_built) {
              table_built = true;
              const std::uint64_t* e0 = e0_at_.data() + cycle[b];
              const std::size_t n = blocks[b].count;
              for (std::size_t k = 0; k < 8; ++k) {
                std::uint64_t* tk = table.data() + k * 256;
                for (unsigned x = 1; x < 256; ++x) {
                  const std::size_t t = k * 8 + std::countr_zero(x);
                  tk[x] = tk[x & (x - 1)] ^ (t < n ? e0[t] : 0);
                }
              }
            }
            std::uint64_t delta = 0;
            for (std::size_t k = 0; k < 8; ++k)
              delta ^= table[k * 256 + ((d >> (8 * k)) & 255)];
            const KIndex g = hits[i].first;
            for (std::uint32_t e = po_offset_[g]; e < po_offset_[g + 1]; ++e) {
              if (sink)
                sink->emplace_back(row + po_[e], delta);
              else
                q_[row + po_[e]] ^= delta;
            }
          }
        }
        h = st.hits_end;
      }
    }
  }
}

void MisrAudit::toggle(const Deltas& d) {
  for (const auto& [slot, delta] : d) q_[slot] ^= delta;
}

MisrAudit::Slots MisrAudit::nonzero(
    std::span<const std::uint32_t> faults) const {
  Slots s;
  s.end.reserve(faults.size());
  for (const std::uint32_t f : faults) {
    const std::uint64_t* qf = q_.data() + std::size_t{f} * outs_;
    for (std::size_t o = 0; o < outs_; ++o)
      if (qf[o]) s.slots.emplace_back(static_cast<std::uint32_t>(o), qf[o]);
    s.end.push_back(static_cast<std::uint32_t>(s.slots.size()));
  }
  return s;
}

std::size_t MisrAudit::escapes(std::span<const std::uint16_t> map,
                               const Slots& slots) const {
  std::size_t n = 0;
  std::size_t e = 0;
  for (const std::uint32_t end : slots.end) {
    std::uint64_t sig = 0;
    for (; e < end; ++e) {
      const auto [o, q] = slots.slots[e];
      const std::uint64_t* t =
          stage_.data() + std::size_t{map[o]} * nbytes_ * 256;
      for (unsigned i = 0; i < nbytes_; ++i, t += 256)
        sig ^= t[(q >> (8 * i)) & 255];
    }
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
  const MisrAudit::Slots checked =
      audit.nonzero(detected_within(first_detected, patterns));
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

RowCompression compress_cube(std::span<const Ternary> cube, unsigned degree,
                             std::uint64_t taps,
                             const std::function<bool()>& free_bit) {
  const std::size_t w = cube.size();
  const unsigned D = degree;
  RowCompression rc;

  // Segmentation: walk the care bits in shift order through an incremental
  // eliminator over the current seed's variables.  Stream bit t is the
  // pre-shift output stage D-1, so u shifts after a load its coefficient
  // mask is row D-1 of M^u: e_{D-1} at the load, and one shift multiplies
  // it by M from the right, (r M)_i = r_0 taps_i ^ r_{i+1}.  On an
  // inconsistency at shift t (only possible at t >= segment_start + D: the
  // first D rows after a load are the identity) the solver reseeds at the
  // last D-aligned boundary at or below t and replays the care bits from
  // there, so progress is guaranteed.
  std::vector<std::pair<std::uint32_t, Gf2Solver>> segments;  // (offset, sys)
  if (w > D) {
    std::uint32_t start = 0;
    while (true) {
      Gf2Solver sys(D);
      Gf2Solver at_boundary;  // snapshot at the last D-aligned boundary
      std::uint64_t row = std::uint64_t{1} << (D - 1);
      std::uint32_t conflict_at = 0;
      bool conflicted = false;
      for (std::size_t t = start; t < w; ++t) {
        if (t > start && (t % D) == 0) at_boundary = sys;
        if (cube[t] != Ternary::VX) {
          const bool bit = cube[t] == Ternary::V1;
          if (sys.add(row, bit) == Gf2Add::Inconsistent) {
            conflict_at = static_cast<std::uint32_t>((t / D) * D);
            conflicted = true;
            break;
          }
        }
        row = (row >> 1) ^ ((row & 1) ? taps & degree_mask(D) : 0);
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
