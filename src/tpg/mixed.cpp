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
    MixedSchemeResult& r) {
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
  r.podem_seconds += seconds_since(t0);

  // Compaction and final accounting on one fault simulator over the tail.
  // The back end always runs to completion (its work is bounded by the
  // top-off set): a deadline on opt.fsim must not silently truncate either
  // pass, or the point would claim a coverage it cannot prove.
  const auto t1 = WallClock::now();
  FaultSimResult tr;  // the kept set against the tail
  if (!r.topoff.empty()) {
    std::vector<Fault> tail_faults;
    std::vector<std::uint32_t> tail_w;
    for (const std::uint32_t idx : tail) {
      tail_faults.push_back(fsim.faults()[idx]);
      tail_w.push_back(fsim.weights()[idx]);
    }
    FaultSimulator tailsim(k, std::move(tail_faults), lr.total_faults,
                           std::move(tail_w));
    FaultSimOptions fo = opt.fsim;
    fo.deadline = nullptr;

    // Reverse-order compaction: simulated backwards, the first pattern to
    // detect a target is the last one in application order that covers it,
    // so keeping exactly the targets' first detections keeps a pattern iff
    // it detects a target no later kept pattern covers.
    const std::size_t n = r.topoff.size();
    const std::vector<BitVec> rev(r.topoff.rbegin(), r.topoff.rend());
    const FaultSimResult cr = tailsim.run(pack_all(rev, width), fo);
    std::vector<char> keep(n, 0);
    for (std::size_t j = 0; j < tail.size(); ++j)
      if (verdicts[j]->status == PodemStatus::Detected &&
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

    // Final accounting: the emitted set against the whole tail, so
    // incidental detections (random fill catching aborted faults) count.
    tr = tailsim.run(pack_all(r.topoff, width), fo);
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
  r.compact_seconds += seconds_since(t1);
  r.solve_seconds = solve;

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
      hits.push_back(
          {tail[j], static_cast<std::uint32_t>(tr.first_detected[j])});
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

  // The LFSR stream so far, one segment per point: each segment starts at
  // lane 0, so no block straddles a point's length and the golden
  // signatures chain over the kept blocks.
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  std::vector<PatternBlock> stream;
  std::vector<std::int64_t> applied_fd(first_detected.size());
  MisrAudit::Deltas topoff_deltas;
  std::size_t at = 0;  // stream patterns so far
  for (SignOffPoint* p : order) {
    const auto t0 = WallClock::now();
    MixedSchemeResult& r = *p->r;
    const std::size_t len = r.lfsr_patterns;

    // Segment [at, len) into the running accumulator, once.
    const std::size_t first = stream.size();
    for (PatternBlock& b : lfsr.blocks(width, len - at))
      stream.push_back(std::move(b));
    audit.add(std::span(stream).subspan(first), len - at, at, first_detected);
    at = len;

    // The point's top-off, toggled in for scoring only, audited over
    // everything the point's applied stream detects.
    std::vector<std::uint32_t> checked;
    for (std::size_t f = 0; f < applied_fd.size(); ++f) {
      const std::int64_t d = first_detected[f];
      applied_fd[f] = d >= 0 && d < std::int64_t(len) ? d : -1;
      if (applied_fd[f] >= 0) checked.push_back(static_cast<std::uint32_t>(f));
    }
    for (const TopoffHit& h : p->hits) {
      applied_fd[h.fault] = std::int64_t(len + h.pattern);
      checked.push_back(h.fault);
    }
    const std::vector<PatternBlock> tblocks = pack_all(r.topoff, width);
    topoff_deltas.clear();
    audit.add(tblocks, r.topoff.size(), len, applied_fd, &topoff_deltas);
    audit.toggle(topoff_deltas);
    const MisrSpec m = pick_misr_fold(base, outs, [&](auto map) {
      return audit.escapes(map, checked);
    });
    audit.toggle(topoff_deltas);

    CompressedTopoff& c = r.comp;
    c.enabled = true;
    c.degree = opt.lfsr_degree;
    c.cut_outputs = outs;
    c.misr = m;
    c.golden = misr_signature(k, tblocks, m, misr_signature(k, stream, m, 0));
    r.solve_seconds += seconds_since(t0);
  }
}

}  // namespace mixed_phase

MixedSchemeResult run_mixed_tpg(const SimKernel& k, const MixedTpgOptions& opt) {
  FaultSimulator fsim(k);
  return run_mixed_tpg(k, fsim, opt);
}

namespace {

// Phases 2+ of run_mixed_tpg after a complete LFSR phase `lr`: PODEM per
// tail fault, then the top-off back end.  Returns what the kept top-off set
// detects (empty when the point degrades).
std::vector<mixed_phase::TopoffHit> run_topoff(const SimKernel& k,
                                               FaultSimulator& fsim,
                                               const FaultSimResult& lr,
                                               const MixedTpgOptions& opt,
                                               MixedSchemeResult& r) {
  const Deadline* dl = opt.deadline;
  // LFSR-resistant faults, ascending sim-fault indices.
  const std::vector<std::uint32_t> tail = lr.tail_at(lr.patterns);

  // --- Phase 2: PODEM per tail fault --------------------------------------
  const auto t1 = WallClock::now();
  std::vector<Fault> tail_faults;
  tail_faults.reserve(tail.size());
  for (const std::uint32_t idx : tail) tail_faults.push_back(fsim.faults()[idx]);
  PodemBatch batch(k, opt.podem_threads);
  PodemOptions po = opt.podem;
  if (dl) po.deadline = dl;
  const std::vector<PodemResult> verdicts = batch.generate(tail_faults, po);
  r.podem_seconds = seconds_since(t1);
  const bool podem_cut =
      std::any_of(verdicts.begin(), verdicts.end(), [](const PodemResult& v) {
        return v.status == PodemStatus::Cancelled;
      });
  if (podem_cut) {
    // Some searches were cut off mid-flight: their slots carry no verdict,
    // so the whole top-off phase is withdrawn rather than emitted partially
    // (a partial top-off could not reproduce an independent run anyway).
    mixed_phase::finish_lfsr_only(
        lr, r,
        dl ? dl->stop_status("podem")
           : StageStatus::cancelled("podem: verdicts cancelled"));
    return {};
  }

  // --- Phases 3+: fill, verify, compact, account --------------------------
  // Once every verdict is in, the back end runs to completion: its work is
  // bounded by the top-off set and the emitted point must be able to prove
  // the coverage it claims.
  std::vector<const PodemResult*> vp(verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) vp[i] = &verdicts[i];
  return mixed_phase::topoff_phases(k, fsim, lr, tail, vp, opt, r);
}

}  // namespace

MixedSchemeResult run_mixed_tpg(const SimKernel& k, FaultSimulator& fsim,
                                const MixedTpgOptions& opt) {
  MixedSchemeResult r;
  const std::size_t width = k.inputs().size();

  // --- Phase 1: pseudo-random LFSR patterns -------------------------------
  const auto t0 = WallClock::now();
  FaultSimOptions fo = opt.fsim;
  if (opt.deadline) fo.deadline = opt.deadline;  // reaches the hot loop
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  const FaultSimResult lr = fsim.run(lfsr.blocks(width, opt.lfsr_patterns), fo);
  r.lfsr_seconds = seconds_since(t0);

  mixed_phase::SignOffPoint point{&r, {}};
  if (lr.status.ok()) {
    point.hits = run_topoff(k, fsim, lr, opt, r);
  } else {
    // Truncated pseudo-random phase: everything computed so far is the
    // exact prefix run; stop here as a degraded LFSR-only point at the
    // length that actually ran.
    mixed_phase::finish_lfsr_only(lr, r, lr.status);
  }
  // --- Sign-off: the sweep's pass with this one point ---------------------
  if (opt.compress)
    mixed_phase::sign_off(k, fsim, opt, misr_spec_for(k.outputs().size()),
                          lr.first_detected, {&point, 1});
  return r;
}

}  // namespace bist
