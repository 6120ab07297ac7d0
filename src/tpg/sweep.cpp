#include "tpg/sweep.hpp"

#include <algorithm>

#include "tpg/lfsr.hpp"
#include "tpg/mixed_phases.hpp"
#include "util/wallclock.hpp"

namespace bist {

MixedSweepResult run_mixed_sweep(const SimKernel& k,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt,
                                 const Deadline* dl) {
  FaultSimulator fsim(k);
  return run_mixed_sweep(k, fsim, lengths, opt, dl);
}

MixedSweepResult run_mixed_sweep(const SimKernel& k, FaultSimulator& fsim,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt,
                                 const Deadline* dl) {
  MixedSweepResult sr;
  sr.lengths.assign(lengths.begin(), lengths.end());
  sr.width = k.inputs().size();
  if (lengths.empty()) return sr;
  const std::size_t width = sr.width;
  const std::size_t lmax = *std::max_element(lengths.begin(), lengths.end());

  // --- One LFSR fault-sim pass amortized over every candidate length ------
  FaultSimResult full;
  {
    const auto t0 = WallClock::now();
    Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
    full = fsim.run(lfsr.blocks(width, lmax), opt.fsim, dl);
    sr.stats.lfsr_seconds = seconds_since(t0);
  }

  // Distinct lengths descending: the tail only grows from point to point, so
  // a verdict cached when a fault first enters the tail serves every
  // subsequent (shorter) length.
  std::vector<std::size_t> order(sr.lengths);
  std::sort(order.begin(), order.end(), std::greater<>());
  order.erase(std::unique(order.begin(), order.end()), order.end());

  // One PODEM session over the union of the tails, its slots in the order
  // faults enter them: a tail only grows from point to point, so point i's
  // tail is exactly slots [0, |tail i|), its new faults the slots from
  // |tail i-1| on.  Each point decides its own prefix just before its
  // top-off phases, and lanes that run ahead keep their searches for the
  // next point.
  std::vector<std::vector<std::uint32_t>> tails(order.size());
  std::vector<std::uint32_t> slot_of(fsim.faults().size(), ~0u);
  std::vector<Fault> session;
  for (std::size_t i = 0; i < order.size() && full.status.ok(); ++i) {
    tails[i] = full.tail_at(order[i]);
    for (const std::uint32_t idx : tails[i])
      if (slot_of[idx] == ~0u) {
        slot_of[idx] = static_cast<std::uint32_t>(session.size());
        session.push_back(fsim.faults()[idx]);
      }
  }
  PodemBatch batch(k, opt.podem_threads);
  sr.stats.podem_threads = batch.workers();
  bool started = false;

  // Front ends in descending order; each point's top-off detections wait
  // for the ascending sign-off pass below.
  std::vector<MixedSchemeResult> by_order;
  std::vector<std::vector<mixed_phase::TopoffHit>> hits(order.size());
  by_order.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t len = order[i];
    MixedSchemeResult r;

    // Anytime check, once per sweep point.  A point whose exact LFSR prefix
    // exists (len within the patterns the shared pass actually simulated)
    // degrades to LfsrOnly — its pseudo-random data is bit-identical to an
    // uninterrupted run; a point beyond the truncated pass has no valid data
    // at all and is Skipped.
    if ((dl && dl->should_stop()) || !full.status.ok()) {
      const StageStatus why =
          dl ? dl->stop_status("mixed_sweep") : full.status;
      if (len <= full.patterns) {
        mixed_phase::finish_lfsr_only(fsim.prefix_result(full, len), r, why);
      } else {
        r.lfsr_patterns = len;
        r.state = PointState::Skipped;
        r.status = why;
      }
      by_order.push_back(std::move(r));
      continue;
    }

    const FaultSimResult lr = fsim.prefix_result(full, len);
    const std::vector<std::uint32_t>& tail = tails[i];

    // PODEM only the faults that just entered the tail; everything else is
    // a cache hit.
    const auto t1 = WallClock::now();
    if (!started) {
      batch.start(session, opt.podem, dl);
      started = true;
    }
    const std::span<const PodemResult> verdicts = batch.decide(tail.size());
    // A Cancelled slot carries no verdict: the point must not use it.
    const bool cut = std::any_of(
        verdicts.begin(), verdicts.begin() + tail.size(),
        [](const PodemResult& v) { return v.status == PodemStatus::Cancelled; });
    const std::size_t cached = i ? tails[i - 1].size() : 0;
    sr.stats.podem_calls += tail.size() - cached;
    sr.stats.podem_cache_hits += cached;
    sr.stats.podem_seconds += seconds_since(t1);  // a cut search ran too
    if (cut) {
      mixed_phase::finish_lfsr_only(
          lr, r,
          dl ? dl->stop_status("mixed_sweep")
             : StageStatus::cancelled("mixed_sweep: podem cancelled"));
      by_order.push_back(std::move(r));
      continue;
    }

    std::vector<const PodemResult*> vp(tail.size());
    for (std::size_t j = 0; j < tail.size(); ++j)
      vp[j] = &verdicts[slot_of[tail[j]]];
    hits[by_order.size()] =
        mixed_phase::topoff_phases(k, fsim, lr, tail, vp, opt, r, sr.stats);
    by_order.push_back(std::move(r));
  }

  // --- Anytime floor -------------------------------------------------------
  // If the deadline beat even the shared pass (every point Skipped), run a
  // bounded undeadlined fault-sim at the SMALLEST candidate length so the
  // sweep still returns one exact LfsrOnly point — a scheduler can select it
  // and a wrapper built from it passes verification.  This floor costs one
  // fault-sim pass of min(lengths) patterns, the cheapest point requested.
  const bool any_usable =
      std::any_of(by_order.begin(), by_order.end(),
                  [](const MixedSchemeResult& p) {
                    return p.state != PointState::Skipped;
                  });
  if (!any_usable) {
    const std::size_t lmin = order.back();  // descending order -> min length
    MixedSchemeResult& r = by_order.back();
    const StageStatus why = r.status;
    r = MixedSchemeResult{};
    Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
    const auto t0 = WallClock::now();
    full = fsim.run(lfsr.blocks(width, lmin), opt.fsim);  // the floor's own pass
    sr.stats.lfsr_seconds += seconds_since(t0);
    mixed_phase::finish_lfsr_only(full, r, why);
  }

  // --- One sign-off pass over every usable point ---------------------------
  // Ascending over the LFSR stream (the floor's own pass when it ran), timed
  // once for the whole sweep.
  if (opt.compress) {
    const auto t0 = WallClock::now();
    std::vector<mixed_phase::SignOffPoint> points;
    for (std::size_t i = 0; i < by_order.size(); ++i)
      if (by_order[i].state != PointState::Skipped)
        points.push_back({&by_order[i], std::move(hits[i])});
    mixed_phase::sign_off(k, fsim, opt, misr_spec_for(k.outputs().size()),
                          full.first_detected, points);
    sr.stats.solve_seconds += seconds_since(t0);
  }

  // Sweep-level verdict: the first non-Complete point's reason (points
  // before it are bit-identical to an uninterrupted sweep).
  for (const MixedSchemeResult& p : by_order)
    if (p.state != PointState::Complete) {
      sr.status = p.status;
      break;
    }

  // Hand results back in the caller's length order (duplicates share a copy).
  sr.points.reserve(sr.lengths.size());
  for (const std::size_t len : sr.lengths) {
    const std::size_t pos =
        std::lower_bound(order.begin(), order.end(), len, std::greater<>()) -
        order.begin();
    sr.points.push_back(by_order[pos]);
  }
  return sr;
}

}  // namespace bist
