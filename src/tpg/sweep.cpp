#include "tpg/sweep.hpp"

#include <algorithm>

#include "tpg/lfsr.hpp"
#include "tpg/mixed_phases.hpp"
#include "util/wallclock.hpp"

namespace bist {

MixedSweepResult run_mixed_sweep(const SimKernel& k,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt) {
  FaultSimulator fsim(k);
  return run_mixed_sweep(k, fsim, lengths, opt);
}

MixedSweepResult run_mixed_sweep(const SimKernel& k, FaultSimulator& fsim,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt) {
  MixedSweepResult sr;
  sr.lengths.assign(lengths.begin(), lengths.end());
  sr.width = k.inputs().size();
  if (lengths.empty()) return sr;
  const std::size_t width = sr.width;
  const std::size_t lmax = *std::max_element(lengths.begin(), lengths.end());

  // --- One LFSR fault-sim pass amortized over every candidate length ------
  const Deadline* dl = opt.deadline;
  FaultSimResult full;
  {
    const auto t0 = WallClock::now();
    FaultSimOptions fo = opt.fsim;
    if (dl) fo.deadline = dl;
    Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
    full = fsim.run(lfsr.blocks(width, lmax), fo);
    sr.stats.lfsr_seconds = seconds_since(t0);
  }

  // Distinct lengths descending: the tail only grows from point to point, so
  // a verdict cached when a fault first enters the tail serves every
  // subsequent (shorter) length.
  std::vector<std::size_t> order(sr.lengths);
  std::sort(order.begin(), order.end(), std::greater<>());
  order.erase(std::unique(order.begin(), order.end()), order.end());

  // Cross-point verdict cache, one slot per sim fault.
  std::vector<char> cached(fsim.faults().size(), 0);
  std::vector<PodemResult> cache(fsim.faults().size());
  PodemBatch batch(k, opt.podem_threads);
  sr.stats.podem_threads = batch.workers();

  // Front ends in descending order; each point's top-off detections wait
  // for the ascending sign-off pass below.
  std::vector<MixedSchemeResult> by_order;
  std::vector<std::vector<mixed_phase::TopoffHit>> hits(order.size());
  by_order.reserve(order.size());
  for (const std::size_t len : order) {
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
    const std::vector<std::uint32_t> tail = full.tail_at(len);

    // PODEM only the faults that just entered the tail; everything else is
    // a cache hit.
    const auto t1 = WallClock::now();
    std::vector<std::uint32_t> miss;
    std::vector<Fault> miss_faults;
    for (const std::uint32_t idx : tail)
      if (!cached[idx]) {
        miss.push_back(idx);
        miss_faults.push_back(fsim.faults()[idx]);
      }
    PodemOptions po = opt.podem;
    if (dl) po.deadline = dl;
    std::vector<PodemResult> fresh = batch.generate(miss_faults, po);
    bool cut = false;
    for (std::size_t j = 0; j < miss.size(); ++j) {
      // A Cancelled slot carries no verdict: never cache it — a later
      // (shorter) point must not inherit a hole where a real verdict
      // belongs.
      if (fresh[j].status == PodemStatus::Cancelled) {
        cut = true;
        continue;
      }
      cache[miss[j]] = std::move(fresh[j]);
      cached[miss[j]] = 1;
    }
    sr.stats.podem_calls += miss.size();
    sr.stats.podem_cache_hits += tail.size() - miss.size();
    r.podem_seconds = seconds_since(t1);
    if (cut) {
      mixed_phase::finish_lfsr_only(
          lr, r,
          dl ? dl->stop_status("mixed_sweep")
             : StageStatus::cancelled("mixed_sweep: podem cancelled"));
      sr.stats.podem_seconds += r.podem_seconds;  // the cut search ran
      by_order.push_back(std::move(r));
      continue;
    }

    std::vector<const PodemResult*> vp(tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) vp[i] = &cache[tail[i]];
    hits[by_order.size()] =
        mixed_phase::topoff_phases(k, fsim, lr, tail, vp, opt, r);
    sr.stats.podem_seconds += r.podem_seconds;
    sr.stats.compact_seconds += r.compact_seconds;
    sr.stats.solve_seconds += r.solve_seconds;
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
    FaultSimOptions fo = opt.fsim;
    fo.deadline = nullptr;
    Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
    const auto t0 = WallClock::now();
    full = fsim.run(lfsr.blocks(width, lmin), fo);  // the floor's own pass
    r.lfsr_seconds = seconds_since(t0);
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
