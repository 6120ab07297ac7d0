// Unit tests of the test-data compression layer (bist/compress): the
// reseeding solver's round-trip guarantee (every care bit of a cube is
// reproduced by the seed expansion), its fallback-by-cost rule, the
// MISR fold/step/signature helpers, the MISR stage operators, and the
// empirical aliasing audit against a brute-force MISR simulation of every
// detected fault on real circuits, and the mixed scheme's one-pass sign-off
// of every sweep point against an independent per-point composition.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bist/compress.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "sim/bitpar_sim.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/mixed.hpp"
#include "tpg/mixed_phases.hpp"
#include "tpg/sweep.hpp"
#include "util/deadline.hpp"
#include "util/gf2.hpp"
#include "util/rng.hpp"

using namespace bist;

namespace {

// Deterministic free-bit source that counts its draws.
struct CountedBits {
  Rng rng;
  std::size_t drawn = 0;
  explicit CountedBits(std::uint64_t seed) : rng(seed) {}
  bool next() {
    ++drawn;
    return rng.next_bool();
  }
};

Ternary care(bool v) { return v ? Ternary::V1 : Ternary::V0; }

// --- compress_cube --------------------------------------------------------

void test_roundtrip_random_cubes() {
  // Random cubes over several degrees and widths: whatever route the solver
  // takes (seeds or fallback), the emitted pattern must honor every care
  // bit, seeded rows must re-expand to exactly the stored pattern, and seed
  // offsets must be degree-aligned and strictly ascending.
  Rng rng(0xBEEF);
  for (const unsigned D : {8u, 16u, 24u, 32u}) {
    const std::uint64_t taps = Lfsr::primitive_taps(D);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t w = 1 + rng.next_below(4 * D);
      const double density = 0.1 + 0.8 * rng.next_double();
      std::vector<Ternary> cube(w, Ternary::VX);
      for (std::size_t i = 0; i < w; ++i)
        if (rng.next_bool(density)) cube[i] = care(rng.next_bool());

      CountedBits bits(trial);
      const RowCompression rc =
          compress_cube(cube, D, taps, [&bits] { return bits.next(); });

      CHECK_EQ(rc.pattern.size(), w);
      for (std::size_t i = 0; i < w; ++i)
        if (cube[i] != Ternary::VX)
          CHECK_EQ(rc.pattern.get(i), cube[i] == Ternary::V1);

      if (w <= D) CHECK(rc.fallback);  // a seed can never beat the row
      if (rc.fallback) {
        CHECK(rc.seeds.empty());
        // One draw per X bit, cube order.
        std::size_t xs = 0;
        for (const Ternary t : cube) xs += t == Ternary::VX;
        CHECK_EQ(bits.drawn, xs);
      } else {
        CHECK(!rc.seeds.empty());
        CHECK(rc.seeds.size() * D < w);  // strictly beats the decoded row
        std::uint32_t prev_off = 0;
        for (std::size_t si = 0; si < rc.seeds.size(); ++si) {
          CHECK_EQ(rc.seeds[si].offset % D, 0u);
          if (si) CHECK(rc.seeds[si].offset > prev_off);
          prev_off = rc.seeds[si].offset;
        }
        CHECK(expand_row(rc.seeds, D, taps, w) == rc.pattern);
        CHECK_EQ(bits.drawn, rc.seeds.size() * D);  // D free vars per seed
      }
    }
  }
}

void test_single_seed_sparse_cube() {
  // A sparse cube much wider than the degree compresses into one seed.
  const unsigned D = 16;
  const std::uint64_t taps = Lfsr::primitive_taps(D);
  std::vector<Ternary> cube(6 * D, Ternary::VX);
  cube[3] = Ternary::V1;
  cube[40] = Ternary::V0;
  cube[77] = Ternary::V1;
  CountedBits bits(1);
  const RowCompression rc =
      compress_cube(cube, D, taps, [&bits] { return bits.next(); });
  CHECK(!rc.fallback);
  CHECK_EQ(rc.seeds.size(), std::size_t{1});
  CHECK_EQ(rc.seeds[0].offset, 0u);
  CHECK(rc.pattern.get(3));
  CHECK(!rc.pattern.get(40));
  CHECK(rc.pattern.get(77));
}

void test_fully_specified_falls_back() {
  // A fully specified random cube of width 2D forces a reseed roughly every
  // D bits, so the seed schedule can never undercut the decoded row and the
  // solver must fall back (this is the c6288s regime: w = 2D, cubes dense).
  const unsigned D = 16;
  const std::uint64_t taps = Lfsr::primitive_taps(D);
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Ternary> cube(2 * D);
    for (auto& t : cube) t = care(rng.next_bool());
    CountedBits bits(trial);
    const RowCompression rc =
        compress_cube(cube, D, taps, [&bits] { return bits.next(); });
    CHECK(rc.fallback);
    for (std::size_t i = 0; i < cube.size(); ++i)
      CHECK_EQ(rc.pattern.get(i), cube[i] == Ternary::V1);
  }
}

// --- MISR helpers ---------------------------------------------------------

void test_misr_spec_and_fold() {
  CHECK_EQ(misr_degree_for(2), 16u);    // floor
  CHECK_EQ(misr_degree_for(20), 20u);   // pass-through
  CHECK_EQ(misr_degree_for(140), 24u);  // cap
  const MisrSpec m = misr_spec_for(40);
  CHECK_EQ(m.degree, 24u);
  CHECK(m.enabled());
  CHECK(m.fold.empty());
  CHECK_EQ(m.cls(0), 0u);
  CHECK_EQ(m.cls(25), 1u);  // natural o mod K
  const std::vector<std::uint16_t> map = fold_map(m, 40);
  CHECK_EQ(map.size(), std::size_t{40});
  for (std::size_t o = 0; o < map.size(); ++o) CHECK_EQ(map[o], o % 24);

  // An explicit fold overrides the modulo rule.
  MisrSpec f = m;
  f.fold.assign(40, 0);
  f.fold[7] = 13;
  CHECK_EQ(f.cls(7), 13u);
  CHECK_EQ(f.cls(8), 0u);

  BitVec outs(40);
  outs.set(7, true);
  outs.set(8, true);
  CHECK_EQ(misr_fold(f, outs), (std::uint64_t{1} << 13) | 1u);
  // Natural fold: outputs 0 and 24 collide in stage 0 — the structural
  // cancellation choose_misr_fold exists to break.
  BitVec pair(40);
  pair.set(0, true);
  pair.set(24, true);
  CHECK_EQ(misr_fold(m, pair), std::uint64_t{0});
}

void test_misr_step_linearity() {
  // misr_step(s, i) = raw_step(s) ^ i implies signatures are linear in the
  // injection stream: step(a^b, i^j) == step(a,i) ^ step(b,j) ^ step(0,0).
  const MisrSpec m = misr_spec_for(16);
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t mask = (std::uint64_t{1} << m.degree) - 1;
    const std::uint64_t a = rng.next_u64() & mask, b = rng.next_u64() & mask;
    const std::uint64_t i = rng.next_u64() & mask, j = rng.next_u64() & mask;
    CHECK_EQ(misr_step(m, a ^ b, i ^ j),
             misr_step(m, a, i) ^ misr_step(m, b, j) ^ misr_step(m, 0, 0));
  }
}

void test_signature_chaining_and_audit() {
  // Golden-signature chaining (two halves == one run) plus the empirical
  // aliasing audit on a real CUT: every fault the stream detects must
  // perturb the signature (zero escapes on c880s' audited fold).
  const Netlist cut = make_iscas85("c880s");
  const SimKernel k(cut);
  const MisrSpec m = misr_spec_for(cut.output_count());

  Lfsr lfsr = Lfsr::maximal(24, 1);
  const std::size_t n = 192;
  const std::vector<PatternBlock> blocks = lfsr.blocks(cut.input_count(), n);
  const std::uint64_t whole = misr_signature(k, blocks, m, 0);
  const std::uint64_t half1 =
      misr_signature(k, std::span(blocks).first(2), m, 0);
  const std::uint64_t half2 =
      misr_signature(k, std::span(blocks).subspan(2), m, half1);
  CHECK_EQ(half2, whole);

  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  CHECK(fr.detected > 0);
  const MisrSpec chosen =
      choose_misr_fold(fsim, k, blocks, n, fr.first_detected, m);
  const AliasingReport rep =
      misr_aliasing_check(fsim, k, blocks, n, chosen, fr.first_detected);
  CHECK_EQ(rep.detected_checked, fr.detected);
  CHECK_EQ(rep.escapes, std::size_t{0});
  CHECK(rep.bound <= 1.0 / 65536.0);
}

// --- Fold audit vs brute force -------------------------------------------

// Brute-force escape count per candidate map: rebuild each detected fault's
// faulty output stream (good outputs XOR FaultSimulator::output_diffs), step
// it through misr_step from state 0 and compare with misr_signature.
// `blocks` must hold exactly the stream.
std::vector<std::size_t> brute_force_escapes(
    const SimKernel& k, FaultSimulator& fsim,
    std::span<const PatternBlock> blocks,
    std::span<const std::int64_t> first_detected, const MisrSpec& base,
    const std::vector<std::vector<std::uint16_t>>& maps) {
  const auto outs = k.outputs();
  const std::size_t n_outs = outs.size();
  const std::size_t n_blocks = blocks.size();
  std::vector<std::uint32_t> audited;
  for (std::size_t f = 0; f < first_detected.size(); ++f)
    if (first_detected[f] >= 0) audited.push_back(std::uint32_t(f));
  std::vector<std::uint64_t> good(n_blocks * n_outs);
  std::vector<std::uint64_t> diff(audited.size() * n_blocks * n_outs);
  KernelSim sim(k);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    sim.simulate(blocks[b]);
    for (std::size_t o = 0; o < n_outs; ++o)
      good[b * n_outs + o] = sim.value_at(outs[o]);
    for (std::size_t i = 0; i < audited.size(); ++i)
      fsim.output_diffs(
          fsim.faults()[audited[i]], sim.values(), blocks[b].lane_mask(),
          std::span(diff).subspan((i * n_blocks + b) * n_outs, n_outs));
  }
  std::vector<std::size_t> escapes;
  for (const auto& map : maps) {
    MisrSpec m = base;
    m.fold = map;
    const std::uint64_t golden = misr_signature(k, blocks, m, 0);
    std::size_t esc = 0;
    for (std::size_t i = 0; i < audited.size(); ++i) {
      std::uint64_t state = 0;
      for (std::size_t b = 0; b < n_blocks; ++b) {
        const std::uint64_t* g = good.data() + b * n_outs;
        const std::uint64_t* d = diff.data() + (i * n_blocks + b) * n_outs;
        for (std::size_t lane = 0; lane < blocks[b].count; ++lane) {
          std::uint64_t inj = 0;
          for (std::size_t o = 0; o < n_outs; ++o)
            inj ^= (((g[o] ^ d[o]) >> lane) & 1) << map[o];
          state = misr_step(m, state, inj);
        }
      }
      esc += state == golden;
    }
    escapes.push_back(esc);
  }
  return escapes;
}

// The audit's per-map escape counts equal the brute-force counts for every
// candidate map, and choose_misr_fold returns the selection rule's pick from
// those counts (earliest map with the fewest escapes, so the first clean map
// when one exists; the natural fold keeps the empty fold).  Returns the
// brute-force counts.
std::vector<std::size_t> check_audit_against_brute_force(
    const char* what, const SimKernel& k, FaultSimulator& fsim,
    std::span<const PatternBlock> blocks, std::size_t n,
    std::span<const std::int64_t> first_detected, const MisrSpec& base) {
  const auto maps = misr_fold_candidates(base.degree, k.outputs().size());
  CHECK_EQ(maps.size(), std::size_t{base.degree} + 8);
  CHECK(maps[0] == fold_map(base, k.outputs().size()));
  const std::vector<std::size_t> brute =
      brute_force_escapes(k, fsim, blocks, first_detected, base, maps);
  std::size_t detected = 0;
  for (const std::int64_t fd : first_detected) detected += fd >= 0;
  std::size_t expect = 0;
  for (std::size_t mi = 0; mi < maps.size(); ++mi) {
    MisrSpec m = base;
    m.fold = maps[mi];
    const AliasingReport rep =
        misr_aliasing_check(fsim, k, blocks, n, m, first_detected);
    CHECK_EQ(rep.detected_checked, detected);
    if (rep.escapes != brute[mi])
      std::printf("%s: map %zu audit %zu vs brute force %zu escapes\n", what,
                  mi, rep.escapes, brute[mi]);
    CHECK_EQ(rep.escapes, brute[mi]);
    if (brute[mi] < brute[expect]) expect = mi;
  }
  const MisrSpec chosen =
      choose_misr_fold(fsim, k, blocks, n, first_detected, base);
  CHECK(chosen.fold == (expect == 0 ? base.fold : maps[expect]));
  return brute;
}

void test_stage_operators_all_degrees() {
  // R_c is the polynomial in M with R_c e_0 = e_c.  It exists because e_0
  // spans the Krylov space {M^j e_0}; solve for its coefficients there and
  // compare with misr_stage_operators' recurrence, for every MISR degree the
  // generator uses.
  for (unsigned K = 16; K <= 24; ++K) {
    const std::uint64_t taps = Lfsr::primitive_taps(K);
    const Gf2Matrix M = lfsr_transition(K, taps);
    std::vector<std::uint64_t> krylov(K);  // krylov[j] = M^j e_0
    krylov[0] = 1;
    for (unsigned j = 1; j < K; ++j) krylov[j] = M.apply(krylov[j - 1]);
    std::vector<Gf2Matrix> powers{Gf2Matrix::identity(K)};  // M^j
    for (unsigned j = 1; j < K; ++j) powers.push_back(M * powers.back());
    const std::vector<Gf2Matrix> R = misr_stage_operators(K, taps);
    CHECK_EQ(R.size(), std::size_t{K});
    for (unsigned c = 0; c < K && c < R.size(); ++c) {
      // Row i of the system: sum_j a_j * bit_i(M^j e_0) = [i == c].
      Gf2Solver sys(K);
      for (unsigned i = 0; i < K; ++i) {
        std::uint64_t coeffs = 0;
        for (unsigned j = 0; j < K; ++j)
          coeffs |= ((krylov[j] >> i) & 1) << j;
        sys.add(coeffs, i == c);
      }
      if (sys.rank() != K) {
        std::printf("FAIL degree %u: e_0 does not span the Krylov space "
                    "(rank %u)\n", K, sys.rank());
        CHECK(false);
        continue;
      }
      const std::uint64_t a = sys.solve();
      Gf2Matrix poly(K);
      for (unsigned j = 0; j < K; ++j)
        if ((a >> j) & 1)
          for (unsigned i = 0; i < K; ++i)
            poly.set_row(i, poly.row(i) ^ powers[j].row(i));
      CHECK(R[c] == poly);
      CHECK_EQ(R[c].apply(1), std::uint64_t{1} << c);
      CHECK(R[c] * M == M * R[c]);
    }
  }
}

void test_audit_c432s_degree8_aliases() {
  // A degree-8 MISR over c432s' ~340 detected faults expects more than one
  // temporal escape at 2^-8 (this stream aliases 3 under the natural fold):
  // the audit must count exactly what brute force counts.
  const Netlist cut = make_iscas85("c432s");
  const SimKernel k(cut);
  MisrSpec m;
  m.degree = 8;
  m.taps = Lfsr::primitive_taps(8);
  const std::size_t n = 2048;
  const auto blocks = Lfsr::maximal(24, 3).blocks(cut.input_count(), n);
  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  const auto brute = check_audit_against_brute_force(
      "c432s K=8", k, fsim, blocks, n, fr.first_detected, m);
  CHECK_EQ(brute[0], std::size_t{3});

  // The same stream fed to one MisrAudit in unaligned pieces, each
  // regenerated by a further Lfsr::blocks call, the last one only toggled
  // in: with it, every map scores what brute force counts over the whole
  // stream; toggled out again, what the audit of the 1000-pattern prefix
  // alone counts.  K=8 leaves real escapes, so a misplaced or dropped
  // contribution shows in the counts.
  const std::size_t cut_at = 1000;
  const std::vector<std::size_t> ends{100, 333, cut_at, n};
  MisrAudit audit(fsim, k, m.degree, m.taps, n);
  Lfsr lfsr = Lfsr::maximal(24, 3);
  MisrAudit::Deltas last;
  std::size_t at = 0;
  for (const std::size_t end : ends) {
    const auto piece = lfsr.blocks(cut.input_count(), end - at);
    audit.add(piece, end - at, at, fr.first_detected,
              end == n ? &last : nullptr);
    at = end;
  }
  std::vector<std::uint32_t> all, prefix;
  for (std::size_t f = 0; f < fr.first_detected.size(); ++f) {
    const std::int64_t d = fr.first_detected[f];
    if (d >= 0) all.push_back(std::uint32_t(f));
    if (d >= 0 && d < std::int64_t(cut_at)) prefix.push_back(std::uint32_t(f));
  }
  const auto prefix_blocks =
      Lfsr::maximal(24, 3).blocks(cut.input_count(), cut_at);
  const auto maps = misr_fold_candidates(m.degree, k.outputs().size());
  audit.toggle(last);
  for (std::size_t mi = 0; mi < maps.size(); ++mi)
    CHECK_EQ(audit.escapes(maps[mi], all), brute[mi]);
  audit.toggle(last);
  for (const auto& map : maps) {
    MisrSpec mm = m;
    mm.fold = map;
    CHECK_EQ(audit.escapes(map, prefix),
             misr_aliasing_check(fsim, k, prefix_blocks, cut_at, mm,
                                 fr.first_detected)
                 .escapes);
  }
}

void test_audit_c880s_sweep_point() {
  // c880s' 1024-pattern mixed point: the natural fold has escapes on its
  // applied stream (LFSR prefix + kept top-off), so the stagger and hashed
  // candidates are scored, and the pipeline's audited fold is what the
  // brute-force counts select.
  const Netlist cut = make_iscas85("c880s");
  const SimKernel k(cut);
  MixedTpgOptions opt;
  opt.lfsr_patterns = 1024;
  const MixedSchemeResult r = run_mixed_tpg(k, opt);
  CHECK(r.comp.enabled);
  std::vector<BitVec> applied;
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  for (std::size_t t = 0; t < r.lfsr_patterns; ++t)
    applied.push_back(lfsr.next_pattern(cut.input_count()));
  applied.insert(applied.end(), r.topoff.begin(), r.topoff.end());
  const auto blocks = pack_all(applied, cut.input_count());
  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  MisrSpec base = r.comp.misr;
  base.fold.clear();
  const auto brute = check_audit_against_brute_force(
      "c880s sweep point", k, fsim, blocks, applied.size(), fr.first_detected,
      base);
  CHECK(brute[0] > 0);
  CHECK(!r.comp.misr.fold.empty());
  CHECK(choose_misr_fold(fsim, k, blocks, applied.size(), fr.first_detected,
                         base)
            .fold == r.comp.misr.fold);
}

void test_audit_clean_circuit() {
  // c1355s' pseudo-random stream is clean under the natural fold: the audit
  // agrees with brute force and the natural fold is kept.
  const Netlist cut = make_iscas85("c1355s");
  const SimKernel k(cut);
  const MisrSpec m = misr_spec_for(cut.output_count());
  const std::size_t n = 256;
  const auto blocks = Lfsr::maximal(24, 3).blocks(cut.input_count(), n);
  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  const auto brute = check_audit_against_brute_force(
      "c1355s", k, fsim, blocks, n, fr.first_detected, m);
  CHECK_EQ(brute[0], std::size_t{0});
  CHECK(choose_misr_fold(fsim, k, blocks, n, fr.first_detected, m).fold.empty());
}

void test_audit_partial_byte_degrees() {
  // The audit scores folds through byte tables of the stage operators;
  // degrees that are not whole bytes leave a partial top table (4 bits at
  // K=12, 1 bit at K=17) whose bits must count like any other.  c880s' 26
  // outputs share stages at both degrees, and some maps escape at each.
  const Netlist cut = make_iscas85("c880s");
  const SimKernel k(cut);
  const std::size_t n = 512;
  const auto blocks = Lfsr::maximal(24, 5).blocks(cut.input_count(), n);
  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  for (const unsigned K : {12u, 17u}) {
    MisrSpec m;
    m.degree = K;
    m.taps = Lfsr::primitive_taps(K);
    const std::string what = "c880s K=" + std::to_string(K);
    check_audit_against_brute_force(what.c_str(), k, fsim, blocks, n,
                                    fr.first_detected, m);
  }
}

// --- One-pass sign-off vs independent per-point composition ---------------

// A point's applied stream built one next_pattern at a time: its LFSR
// phase, then its top-off.
std::vector<BitVec> applied_stream(const MixedTpgOptions& opt,
                                   const MixedSchemeResult& r,
                                   std::size_t width) {
  std::vector<BitVec> applied;
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  for (std::size_t t = 0; t < r.lfsr_patterns; ++t)
    applied.push_back(lfsr.next_pattern(width));
  applied.insert(applied.end(), r.topoff.begin(), r.topoff.end());
  return applied;
}

// Sign every usable point of `sw` off from scratch — rebuild its applied
// stream, fault-simulate it, choose_misr_fold and misr_signature over the
// whole stream, folds chosen for `base` — and compare with the (misr,
// golden) the sweep's shared pass produced.  Returns the number of points
// checked.
std::size_t check_sign_off(const char* what, const SimKernel& k,
                           FaultSimulator& fsim, const MixedTpgOptions& opt,
                           const MixedSweepResult& sw, const MisrSpec& base) {
  const std::size_t width = k.inputs().size();
  std::size_t checked = 0;
  for (std::size_t p = 0; p < sw.points.size(); ++p) {
    const MixedSchemeResult& r = sw.points[p];
    if (r.state == PointState::Skipped) {
      CHECK(!r.comp.enabled);
      continue;
    }
    const std::vector<BitVec> applied = applied_stream(opt, r, width);
    const auto blocks = pack_all(applied, width);
    const FaultSimResult fr = fsim.run(blocks);
    const MisrSpec m = choose_misr_fold(fsim, k, blocks, applied.size(),
                                        fr.first_detected, base);
    const std::uint64_t golden = misr_signature(k, blocks, m, 0);
    CHECK(r.comp.enabled);
    if (r.comp.misr != m || r.comp.golden != golden)
      std::printf("%s: point %zu (length %zu, %s, %zu top-off) signs off "
                  "differently from the independent composition\n",
                  what, p, sw.lengths[p],
                  std::string(point_state_name(r.state)).c_str(),
                  r.topoff.size());
    CHECK(r.comp.misr == m);
    CHECK_EQ(r.comp.golden, golden);
    ++checked;
  }
  return checked;
}

// Sign the sweep's points off again, under another base MISR, through the
// pipeline's one-pass sign-off: each point's top-off hits are read off an
// independent fault-sim run of its applied stream, the LFSR-phase
// detections off one pass at the longest length, as the sweep has them.
MixedSweepResult resign(const SimKernel& k, FaultSimulator& fsim,
                        const MixedTpgOptions& opt, MixedSweepResult sw,
                        const MisrSpec& base) {
  const std::size_t width = k.inputs().size();
  std::size_t lmax = 0;
  for (const MixedSchemeResult& r : sw.points)
    lmax = std::max(lmax, r.lfsr_patterns);
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  const FaultSimResult full = fsim.run(lfsr.blocks(width, lmax));
  std::vector<mixed_phase::SignOffPoint> points;
  for (MixedSchemeResult& r : sw.points) {
    const FaultSimResult fr =
        fsim.run(pack_all(applied_stream(opt, r, width), width));
    mixed_phase::SignOffPoint p{&r, {}};
    for (std::size_t f = 0; f < fr.first_detected.size(); ++f)
      if (const std::int64_t d = fr.first_detected[f];
          d >= std::int64_t(r.lfsr_patterns))
        p.hits.push_back({static_cast<std::uint32_t>(f),
                          static_cast<std::uint32_t>(d - r.lfsr_patterns)});
    points.push_back(std::move(p));
  }
  mixed_phase::sign_off(k, fsim, opt, base, full.first_detected, points);
  return sw;
}

// Blocks of the sign-off's batched top-off sweep: one piece per point, each
// starting at lane 0.
std::size_t topoff_blocks(const MixedSweepResult& sw) {
  std::size_t n = 0;
  for (const MixedSchemeResult& r : sw.points) n += (r.topoff.size() + 63) / 64;
  return n;
}

void test_sweep_sign_off_matches_independent() {
  // c880s, whose natural fold escapes.  Unsorted lengths with a duplicate,
  // none a multiple of the block size, so the pass's segments split blocks
  // everywhere; the 30-pattern point chooses a different fold from the
  // rest, and the 4000-pattern point is Complete with an empty top-off.
  // The top-off pieces together span more than one 256-lane group of the
  // batched top-off sweep, so pieces share groups and cross group edges.
  const Netlist cut = make_iscas85("c880s");
  const SimKernel k(cut);
  FaultSimulator fsim(k);
  const std::vector<std::size_t> lengths{1000, 100, 333, 1000, 30, 4000};
  MixedTpgOptions opt;
  opt.podem.backtrack_limit = 20;
  const MixedSweepResult sw = run_mixed_sweep(k, fsim, lengths, opt);
  CHECK(sw.status.ok());
  CHECK(topoff_blocks(sw) > kMaxWordWidth);
  const MisrSpec base = misr_spec_for(k.outputs().size());
  CHECK_EQ(check_sign_off("c880s", k, fsim, opt, sw, base), lengths.size());
  std::set<std::vector<std::uint16_t>> folds;
  bool empty_topoff = false;
  for (const MixedSchemeResult& r : sw.points) {
    folds.insert(r.comp.misr.fold);
    empty_topoff = empty_topoff || r.topoff.empty();
  }
  CHECK(folds.size() > 1);
  CHECK(empty_topoff);

  // Deadline-degraded sweeps: an immediate deadline leaves only the anytime
  // floor's own pass, later ones LfsrOnly points over a truncated pass, and
  // LfsrOnly beside Complete points.  PODEM polls once per stem group of
  // its pre-pass and once per lane-parallel step.  The sweep's one session
  // decides the longest point's tail first, while its lanes run ahead into
  // the shorter points' faults, so the fewest polls that leave the
  // 4000-pattern point Complete land just past that first decide, and the
  // rest are LfsrOnly.  That budget moves whenever the poll count of the
  // pre-pass or the search does, so it is found by bisection rather than
  // pinned.  1000 polls outlast the whole sweep.
  const auto longest_complete = [&](std::uint64_t polls) {
    Deadline d = Deadline::after_checks(polls);
    const MixedSweepResult dl = run_mixed_sweep(k, fsim, lengths, opt, &d);
    return dl.points[5].state == PointState::Complete;  // lengths[5] == 4000
  };
  std::uint64_t short_of = 40, first_complete = 1000;
  CHECK(!longest_complete(short_of));
  CHECK(longest_complete(first_complete));
  while (first_complete - short_of > 1) {
    const std::uint64_t mid = (short_of + first_complete) / 2;
    (longest_complete(mid) ? first_complete : short_of) = mid;
  }
  std::printf("c880s sweep: the longest point is Complete from %llu polls\n",
              static_cast<unsigned long long>(first_complete));
  bool mixed_states = false;
  for (const std::uint64_t polls :
       {std::uint64_t{0}, std::uint64_t{40}, first_complete,
        std::uint64_t{1000}}) {
    Deadline d = Deadline::after_checks(polls);
    const MixedSweepResult dl = run_mixed_sweep(k, fsim, lengths, opt, &d);
    const std::size_t signed_off = check_sign_off("c880s deadlined", k, fsim,
                                                  opt, dl, base);
    if (polls == 0) CHECK_EQ(signed_off, std::size_t{1});
    bool complete = false, lfsr_only = false;
    for (const MixedSchemeResult& r : dl.points) {
      complete = complete || r.state == PointState::Complete;
      lfsr_only = lfsr_only || r.state == PointState::LfsrOnly;
    }
    mixed_states = mixed_states || (complete && lfsr_only);
  }
  CHECK(mixed_states);

  // A K=8 base: 2^8 signatures make the folds depend on every segment's
  // offset into the stream and on each point's own first detections, which
  // the K >= 16 production MISR barely shows.
  MisrSpec base8;
  base8.degree = 8;
  base8.taps = Lfsr::primitive_taps(8);
  for (const char* name : {"c432s", "c880s"}) {
    const Netlist c = make_iscas85(name);
    const SimKernel ck(c);
    FaultSimulator cf(ck);
    const std::vector<std::size_t> unaligned{1000, 100, 333, 30, 200, 70};
    const MixedSweepResult s8 =
        resign(ck, cf, opt, run_mixed_sweep(ck, cf, unaligned, opt), base8);
    CHECK(topoff_blocks(s8) > kMaxWordWidth);
    const std::string what = std::string(name) + " K=8";
    CHECK_EQ(check_sign_off(what.c_str(), ck, cf, opt, s8, base8),
             unaligned.size());
  }
}

void test_expand_row_reseed_overwrite() {
  // A mid-stream reseed overwrites the register: bits after the event come
  // from the new seed's expansion, and the first `degree` of them spell the
  // seed out MSB-first (the identity window).
  const unsigned D = 8;
  const std::uint64_t taps = Lfsr::primitive_taps(D);
  std::vector<SeedEvent> ev(2);
  ev[0].offset = 0;
  ev[0].seed = 0xA5;
  ev[1].offset = 16;
  ev[1].seed = 0x3C;
  const BitVec p = expand_row(ev, D, taps, 32);
  for (unsigned t = 0; t < D; ++t) {
    CHECK_EQ(p.get(t), bool((0xA5 >> (D - 1 - t)) & 1));
    CHECK_EQ(p.get(16 + t), bool((0x3C >> (D - 1 - t)) & 1));
  }
}

}  // namespace

int main() {
  test_roundtrip_random_cubes();
  test_single_seed_sparse_cube();
  test_fully_specified_falls_back();
  test_misr_spec_and_fold();
  test_misr_step_linearity();
  test_signature_chaining_and_audit();
  test_expand_row_reseed_overwrite();
  test_stage_operators_all_degrees();
  test_audit_c432s_degree8_aliases();
  test_audit_c880s_sweep_point();
  test_audit_clean_circuit();
  test_audit_partial_byte_degrees();
  test_sweep_sign_off_matches_independent();
  return bist_test::summary();
}
