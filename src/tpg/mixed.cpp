#include "tpg/mixed.hpp"

#include <algorithm>
#include <stdexcept>

#include "tpg/lfsr.hpp"
#include "tpg/mixed_phases.hpp"
#include "util/wallclock.hpp"

namespace bist {

std::string_view point_state_name(PointState s) {
  switch (s) {
    case PointState::Complete: return "complete";
    case PointState::LfsrOnly: return "lfsr_only";
    case PointState::Skipped: return "skipped";
  }
  return "?";
}

namespace mixed_phase {

BitVec fill_cube(std::span<const Ternary> cube, FillBits& bits) {
  BitVec p(cube.size());
  for (std::size_t i = 0; i < cube.size(); ++i) {
    const bool bit =
        cube[i] == Ternary::VX ? bits.next() : cube[i] == Ternary::V1;
    p.set(i, bit);
  }
  return p;
}

bool verify_batched(const SimKernel& k, FaultSimulator& fsim,
                    std::span<const BitVec> patterns,
                    std::span<const std::uint32_t> target) {
  const std::size_t width = k.inputs().size();
  KernelSim sim(k);
  bool ok = true;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t cnt = std::min<std::size_t>(64, patterns.size() - base);
    const PatternBlock blk = pack_patterns({patterns.data() + base, cnt}, width);
    sim.simulate(blk);
    for (std::size_t j = 0; j < cnt; ++j) {
      const Fault& f = fsim.faults()[target[base + j]];
      if (!(fsim.detect_lanes(f, sim.values(), blk.lane_mask()) >> j & 1))
        ok = false;
    }
  }
  return ok;
}

namespace {

// The LFSR-phase fields of a point, from the phase's result at its length.
void take_lfsr_phase(const FaultSimResult& lr, MixedSchemeResult& r) {
  r.lfsr_patterns = lr.patterns;
  r.lfsr_coverage = lr.final_coverage();
  r.lfsr_coverage_weighted = lr.final_coverage_weighted();
}

}  // namespace

std::vector<TopoffHit> topoff_phases(
    const SimKernel& k, FaultSimulator& fsim, const FaultSimResult& lr,
    std::span<const std::uint32_t> tail,
    std::span<const PodemResult* const> verdicts, const MixedTpgOptions& opt,
    MixedSchemeResult& r, MixedSweepStats& stats) {
  const auto t0 = WallClock::now();
  take_lfsr_phase(lr, r);
  r.tail_faults = tail.size();
  const std::size_t width = k.inputs().size();
  const std::uint64_t taps = Lfsr::primitive_taps(opt.lfsr_degree);

  // X-fill the detected cubes in tail order from a fresh fill stream — the
  // stream position a cube sees depends only on the X counts of the detected
  // cubes before it in this point's tail, so a sweep replays it exactly.
  // Under opt.compress the same stream instead feeds the free seed variables
  // of the GF(2) reseeding solve (and the raw X bits of fallback rows), so
  // the stored pattern IS the seed expansion by construction.
  FillBits bits(opt.fill_seed);
  std::vector<std::uint32_t> target;  // per top-off pattern: its tail fault
  std::vector<RowCompression> rows;   // aligned with r.topoff (compress mode)
  double solve = 0.0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const PodemResult& pr = *verdicts[i];
    r.podem_backtracks += pr.backtracks;
    r.podem_decisions += pr.decisions;
    switch (pr.status) {
      case PodemStatus::Detected:
        if (opt.compress) {
          const auto s0 = WallClock::now();
          RowCompression rc = compress_cube(pr.cube, opt.lfsr_degree, taps,
                                            [&bits] { return bits.next(); });
          solve += seconds_since(s0);
          r.topoff.push_back(std::move(rc.pattern));
          rc.pattern = BitVec();
          rows.push_back(std::move(rc));
        } else {
          r.topoff.push_back(fill_cube(pr.cube, bits));
        }
        target.push_back(tail[i]);
        ++r.podem_detected;
        break;
      case PodemStatus::Redundant:
        ++r.redundant;
        r.redundant_faults.push_back(fsim.faults()[tail[i]]);
        break;
      case PodemStatus::Aborted:
        ++r.aborted;
        r.aborted_faults.push_back(fsim.faults()[tail[i]]);
        break;
      case PodemStatus::Cancelled:
        // Callers must downgrade the point (LfsrOnly) instead of handing a
        // cut-off search to the back end — a Cancelled slot carries no
        // verdict and must not be counted under any bucket.
        throw std::logic_error(
            "topoff_phases: cancelled PODEM verdict reached the back end");
    }
  }
  r.topoff_before_compaction = r.topoff.size();
  if (!r.topoff.empty())
    r.all_verified = verify_batched(k, fsim, r.topoff, target);
  stats.podem_seconds += seconds_since(t0) - solve;
  stats.solve_seconds += solve;

  // Compaction and final accounting on one fault simulator over the tail
  // faults not proven Redundant: no pattern detects a proven one, and
  // verify_wrapper's coverage pass still simulates every fault, so an
  // unsound proof shows there as a coverage mismatch.  `unproven[j]` is the
  // tail position of tailsim's fault j.  The back end always runs to
  // completion (its work is bounded by the top-off set), so neither pass
  // takes a deadline: a truncated pass would let the point claim a coverage
  // it cannot prove.
  const auto t1 = WallClock::now();
  FaultSimResult tr;  // the kept set against the unproven tail
  std::vector<std::uint32_t> unproven;
  if (!r.topoff.empty()) {
    std::vector<Fault> tail_faults;
    std::vector<std::uint32_t> tail_w;
    for (std::size_t j = 0; j < tail.size(); ++j) {
      if (verdicts[j]->status == PodemStatus::Redundant) continue;
      unproven.push_back(static_cast<std::uint32_t>(j));
      tail_faults.push_back(fsim.faults()[tail[j]]);
      tail_w.push_back(fsim.weights()[tail[j]]);
    }
    FaultSimulator tailsim(k, std::move(tail_faults), lr.total_faults,
                           std::move(tail_w));

    // Reverse-order compaction: simulated backwards, the first pattern to
    // detect a target is the last one in application order that covers it,
    // so keeping exactly the targets' first detections keeps a pattern iff
    // it detects a target no later kept pattern covers.
    const std::size_t n = r.topoff.size();
    const std::vector<BitVec> rev(r.topoff.rbegin(), r.topoff.rend());
    const FaultSimResult cr = tailsim.run(pack_all(rev, width), opt.fsim);
    std::vector<char> keep(n, 0);
    for (std::size_t j = 0; j < unproven.size(); ++j)
      if (verdicts[unproven[j]]->status == PodemStatus::Detected &&
          cr.first_detected[j] >= 0)
        keep[n - 1 - std::size_t(cr.first_detected[j])] = 1;
    std::vector<BitVec> sel;
    std::vector<RowCompression> sel_rows;
    for (std::size_t i = 0; i < n; ++i)
      if (keep[i]) {
        sel.push_back(std::move(r.topoff[i]));
        if (opt.compress) sel_rows.push_back(std::move(rows[i]));
      }
    r.topoff = std::move(sel);
    rows = std::move(sel_rows);

    // Final accounting: the emitted set against the unproven tail, so
    // incidental detections (random fill catching aborted faults) count.
    tr = tailsim.run(pack_all(r.topoff, width), opt.fsim);
  }
  r.topoff_patterns = r.topoff.size();
  r.final_coverage =
      lr.sim_faults
          ? double(lr.detected + tr.detected) / double(lr.sim_faults)
          : 0.0;
  r.final_coverage_weighted =
      lr.total_weight
          ? double(lr.detected_weight + tr.detected_weight) /
                double(lr.total_weight)
          : 0.0;
  stats.compact_seconds += seconds_since(t1);

  // Seed schedules renumbered to the kept rows; the MISR half of comp is
  // sign_off()'s.
  if (opt.compress) {
    r.comp.fallback.assign(rows.size(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      r.comp.fallback[i] = rows[i].fallback;
      for (SeedEvent e : rows[i].seeds) {
        e.row = static_cast<std::uint32_t>(i);
        r.comp.seeds.push_back(e);
      }
    }
  }
  std::vector<TopoffHit> hits;
  for (std::size_t j = 0; j < tr.first_detected.size(); ++j)
    if (tr.first_detected[j] >= 0)
      hits.push_back({tail[unproven[j]],
                      static_cast<std::uint32_t>(tr.first_detected[j])});
  return hits;
}

void finish_lfsr_only(const FaultSimResult& lr, MixedSchemeResult& r,
                      StageStatus why) {
  take_lfsr_phase(lr, r);
  r.tail_faults = lr.sim_faults - lr.detected;
  r.final_coverage = r.lfsr_coverage;
  r.final_coverage_weighted = r.lfsr_coverage_weighted;
  r.state = PointState::LfsrOnly;
  r.status = std::move(why);
}

void sign_off(const SimKernel& k, const FaultSimulator& fsim,
              const MixedTpgOptions& opt, const MisrSpec& base,
              std::span<const std::int64_t> first_detected,
              std::span<SignOffPoint> points) {
  std::vector<SignOffPoint*> order;
  std::size_t horizon = 0;
  for (SignOffPoint& p : points) {
    order.push_back(&p);
    horizon = std::max(horizon, p.r->lfsr_patterns + p.r->topoff.size());
  }
  std::sort(order.begin(), order.end(),
            [](const SignOffPoint* a, const SignOffPoint* b) {
              return a->r->lfsr_patterns < b->r->lfsr_patterns;
            });
  const std::size_t width = k.inputs().size();
  const std::size_t outs = k.outputs().size();
  MisrAudit audit(fsim, k, base.degree, base.taps, horizon);

  // Every point's top-off, one piece each (empty for an empty top-off),
  // through ONE sweep.  A fault joins at the earliest piece whose point
  // detects it: on any pattern of a piece whose point does not, its output
  // diffs are zero (the point's prefix detections plus its hits are
  // everything its top-off detects), so each piece's deltas are exactly its
  // own.
  std::vector<PatternBlock> tblocks;
  std::vector<MisrAudit::Piece> pieces;  // per point of `order`
  std::vector<std::uint32_t> join(first_detected.size(),
                                  OutputDiffSweep::kNever);
  for (const SignOffPoint* p : order) {
    const MixedSchemeResult& r = *p->r;
    const auto first = static_cast<std::uint32_t>(tblocks.size());
    pieces.push_back({first, r.lfsr_patterns});
    if (r.topoff.empty()) continue;
    for (PatternBlock& b : pack_all(r.topoff, width))
      tblocks.push_back(std::move(b));
    const std::int64_t len = std::int64_t(r.lfsr_patterns);
    for (std::size_t f = 0; f < join.size(); ++f)
      if (first_detected[f] >= 0 && first_detected[f] < len)
        join[f] = std::min(join[f], first);
    for (const TopoffHit& h : p->hits)
      join[h.fault] = std::min(join[h.fault], first + h.pattern / 64);
  }
  std::vector<MisrAudit::Deltas> topoff_deltas(pieces.size());
  audit.add_pieces(tblocks, pieces, join, topoff_deltas);

  // The LFSR stream so far, one segment per point: each segment starts at
  // lane 0, so no block straddles a point's length and the golden
  // signatures chain over the kept blocks.
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  std::vector<PatternBlock> stream;
  std::size_t at = 0;  // stream patterns so far
  // The golden signature of the stream's first `signed_blocks` blocks under
  // fold `signed_fold`, carried from point to point while the fold stays.
  std::uint64_t state = 0;
  std::size_t signed_blocks = 0;
  MisrSpec signed_fold;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SignOffPoint* p = order[i];
    MixedSchemeResult& r = *p->r;
    const std::size_t len = r.lfsr_patterns;

    // Segment [at, len) into the running accumulator, once.
    const std::size_t first = stream.size();
    for (PatternBlock& b : lfsr.blocks(width, len - at))
      stream.push_back(std::move(b));
    audit.add(std::span(stream).subspan(first), len - at, at, first_detected);
    at = len;

    // The point's top-off deltas, toggled in for scoring only, audited over
    // everything the point's applied stream detects.
    std::vector<std::uint32_t> checked;
    for (std::size_t f = 0; f < first_detected.size(); ++f)
      if (first_detected[f] >= 0 && first_detected[f] < std::int64_t(len))
        checked.push_back(static_cast<std::uint32_t>(f));
    for (const TopoffHit& h : p->hits) checked.push_back(h.fault);
    audit.toggle(topoff_deltas[i]);
    const MisrAudit::Slots slots = audit.nonzero(checked);
    audit.toggle(topoff_deltas[i]);
    const MisrSpec m = pick_misr_fold(base, outs, [&](auto map) {
      return audit.escapes(map, slots);
    });

    CompressedTopoff& c = r.comp;
    c.enabled = true;
    c.degree = opt.lfsr_degree;
    c.cut_outputs = outs;
    c.misr = m;
    if (m != signed_fold) {
      state = 0;
      signed_blocks = 0;
      signed_fold = m;
    }
    state = misr_signature(k, std::span(stream).subspan(signed_blocks), m,
                           state);
    signed_blocks = stream.size();
    const std::size_t tend =
        i + 1 < pieces.size() ? pieces[i + 1].first_block : tblocks.size();
    c.golden = misr_signature(
        k, std::span(tblocks).subspan(pieces[i].first_block,
                                      tend - pieces[i].first_block),
        m, state);
  }
}

}  // namespace mixed_phase

MixedSchemeResult run_mixed_tpg(const SimKernel& k,
                                const MixedTpgOptions& opt) {
  FaultSimulator fsim(k);
  return run_mixed_tpg(k, fsim, opt);
}

MixedSchemeResult run_mixed_tpg(const SimKernel& k, FaultSimulator& fsim,
                                const MixedTpgOptions& opt) {
  MixedSchemeResult r;

  // --- Phase 1: pseudo-random LFSR patterns -------------------------------
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  const FaultSimResult lr =
      fsim.run(lfsr.blocks(k.inputs().size(), opt.lfsr_patterns), opt.fsim);

  // --- Phase 2: PODEM per LFSR-resistant fault, ascending sim-fault index --
  const std::vector<std::uint32_t> tail = lr.tail_at(lr.patterns);
  std::vector<Fault> tail_faults;
  tail_faults.reserve(tail.size());
  for (const std::uint32_t idx : tail) tail_faults.push_back(fsim.faults()[idx]);
  PodemBatch batch(k, opt.podem_threads);
  const std::vector<PodemResult> verdicts =
      batch.generate(tail_faults, opt.podem);

  // --- Phases 3+: fill, verify, compact, account --------------------------
  std::vector<const PodemResult*> vp(verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) vp[i] = &verdicts[i];
  MixedSweepStats untimed;  // a single point reports no timings
  mixed_phase::SignOffPoint point{
      &r, mixed_phase::topoff_phases(k, fsim, lr, tail, vp, opt, r, untimed)};

  // --- Sign-off: the sweep's pass with this one point ---------------------
  if (opt.compress)
    mixed_phase::sign_off(k, fsim, opt, misr_spec_for(k.outputs().size()),
                          lr.first_detected, {&point, 1});
  return r;
}

}  // namespace bist
