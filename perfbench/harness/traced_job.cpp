#include "traced_job.hpp"

#include <algorithm>
#include <memory>

#include "bist/compress.hpp"
#include "bist/schedule.hpp"
#include "bist/synth.hpp"
#include "bist/verify.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "netlist/bench_io.hpp"
#include "sim/bitpar_sim.hpp"
#include "sim/kernel.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/sweep.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace perfbench {

void LayerCounts::add(const LayerCounts& o) {
  jobs += o.jobs;
  podem_calls += o.podem_calls;
  podem_aborted += o.podem_aborted;
  podem_backtracks += o.podem_backtracks;
  podem_useful += o.podem_useful;
  cube_cache_hits += o.cube_cache_hits;
  cube_cache_calls += o.cube_cache_calls;
  seeds += o.seeds;
  fallback_rows += o.fallback_rows;
  wrapper_gates += o.wrapper_gates;
  escapes += o.escapes;
  store_lookups += o.store_lookups;
  store_hits += o.store_hits;
  record_bytes += o.record_bytes;
  sweep_solve_s += o.sweep_solve_s;
}

TracedJob run_traced_job(const bist::JobSpec& spec, std::uint32_t job_id,
                         Tracer& tracer, bist::ResultStore& store,
                         bist::BatchManifest& manifest,
                         const MemFileOps& files) {
  TracedJob out;
  LayerCounts& c = out.counts;
  c.jobs = 1;
  const auto job_t0 = bist::WallClock::now();
  const ScopedSpan job(tracer, "job", -1, job_id);
  const auto stage = [&](const char* name, auto&& body) {
    const ScopedSpan s(tracer, name, job.id(), job_id);
    body();
  };
  const auto probe = [&](const char* name, auto&& body) {
    const auto t0 = bist::WallClock::now();
    {
      const ScopedSpan s(tracer, name, job.id(), job_id, true);
      body();
    }
    out.probe_s += bist::seconds_since(t0);
  };

  // --- the pipeline, in run_plan_job's stage order ------------------------
  bist::JobReport rep;
  rep.name = spec.name;
  bist::Netlist cut;
  stage("netlist.parse",
        [&] { cut = bist::read_bench(spec.bench_text, spec.name, spec.limits); });

  bist::Digest128 key;
  bool hit = false;
  stage("store.load", [&] {
    key = bist::sweep_cache_key(cut, spec.sweep_lengths, spec.tpg);
    bist::ResultStore::SweepLookup lk = store.load_sweep(key);
    hit = lk.outcome == bist::ResultStore::SweepLookup::Outcome::Hit;
    if (hit) rep.sweep = std::move(lk.sweep);
  });
  c.store_lookups = 1;
  c.store_hits = hit ? 1 : 0;

  std::unique_ptr<bist::SimKernel> kernel;
  if (!hit) {
    stage("sim.kernel",
          [&] { kernel = std::make_unique<bist::SimKernel>(cut); });
    stage("tpg.sweep", [&] {
      rep.sweep = bist::run_mixed_sweep(*kernel, spec.sweep_lengths, spec.tpg);
    });
    c.cube_cache_hits = rep.sweep.stats.podem_cache_hits;
    c.cube_cache_calls = rep.sweep.stats.podem_calls;
    c.sweep_solve_s = rep.sweep.stats.solve_seconds;
    stage("store.publish", [&] { store.store_sweep(key, rep.sweep); });
    c.record_bytes = files.file_size(store.sweep_path(key));
  }

  stage("bist.schedule", [&] {
    bist::ScheduleOptions so = spec.schedule;
    so.lfsr_degree = spec.tpg.lfsr_degree;
    so.lfsr_seed = spec.tpg.lfsr_seed;
    rep.plan = bist::schedule_bist(rep.sweep, rep.sweep.width, so);
    rep.degraded = rep.plan.degraded;
  });

  bist::Netlist wrapper;
  stage("bist.synth", [&] {
    bist::BistSynthResult syn = bist::synthesize_bist_wrapper(cut, rep.plan);
    wrapper = std::move(syn.wrapper);
    rep.wrapper_bench = bist::write_bench(wrapper);
    c.wrapper_gates = syn.bist_gates;
  });

  const bist::MixedSchemeResult& point = rep.sweep.points[rep.plan.point_index];
  stage("bist.verify", [&] {
    rep.verification =
        bist::verify_wrapper(wrapper, cut, rep.plan, point, spec.tpg.fsim);
    rep.wrapper_ok = rep.verification.ok();
  });
  c.escapes = rep.verification.aliasing.escapes;
  c.seeds = rep.plan.comp.seeds.size();
  c.fallback_rows = rep.plan.comp.fallback_rows();

  stage("store.journal",
        [&] { manifest.append(bist::job_key(spec), rep); });
  out.summary = summarize(rep);

  // --- probes --------------------------------------------------------------
  probe("bist.selfsim",
        [&] { (void)bist::simulate_wrapper(wrapper, cut, rep.plan); });
  // A hit builds no kernel in the sweep stage; verify still builds one over
  // the CUT, and this probe times that construction.
  if (hit)
    probe("sim.kernel", [&] { (void)bist::SimKernel(cut); });

  // A store hit ran no sweep, so its sub-layers did no work for this job.
  if (!hit) {
    const std::size_t width = kernel->inputs().size();
    const auto [lmin, lmax] = std::minmax_element(spec.sweep_lengths.begin(),
                                                  spec.sweep_lengths.end());
    std::unique_ptr<bist::FaultSimulator> fsim;
    bist::FaultSimResult full;
    probe("fault.lfsr_sim", [&] {
      fsim = std::make_unique<bist::FaultSimulator>(*kernel);
      bist::Lfsr lfsr =
          bist::Lfsr::maximal(spec.tpg.lfsr_degree, spec.tpg.lfsr_seed);
      full = fsim->run(lfsr.blocks(width, *lmax), spec.tpg.fsim);
    });

    // The shortest point's tail is every fault the sweep's cube cache ever
    // sends to PODEM.
    const std::vector<std::uint32_t> tail = full.tail_at(*lmin);
    std::vector<bist::Fault> faults;
    faults.reserve(tail.size());
    for (const std::uint32_t idx : tail) faults.push_back(fsim->faults()[idx]);
    std::vector<bist::PodemResult> verdicts;
    probe("fault.podem", [&] {
      bist::PodemBatch batch(*kernel, 1);
      verdicts = batch.generate(faults, spec.tpg.podem);
    });
    for (const bist::PodemResult& v : verdicts) {
      ++c.podem_calls;
      c.podem_backtracks += v.backtracks;
      if (v.status == bist::PodemStatus::Aborted) ++c.podem_aborted;
      if (v.status == bist::PodemStatus::Detected ||
          v.status == bist::PodemStatus::Redundant)
        ++c.podem_useful;
    }

    if (rep.plan.comp.enabled) {
      const unsigned degree = spec.tpg.lfsr_degree;
      const std::size_t len = rep.plan.lfsr_patterns;
      std::vector<std::int32_t> slot(fsim->faults().size(), -1);
      for (std::size_t j = 0; j < tail.size(); ++j)
        slot[tail[j]] = static_cast<std::int32_t>(j);
      probe("bist.seed_solve", [&] {
        bist::Rng fill(spec.tpg.fill_seed);
        const std::uint64_t taps = bist::Lfsr::primitive_taps(degree);
        for (const std::uint32_t idx : full.tail_at(len)) {
          const bist::PodemResult& v = verdicts[std::size_t(slot[idx])];
          if (v.status != bist::PodemStatus::Detected) continue;
          (void)bist::compress_cube(v.cube, degree, taps,
                                    [&fill] { return (fill.next_u32() & 1) != 0; });
        }
      });

      // The scheduled point's applied stream and what it detects.
      std::vector<bist::PatternBlock> blocks;
      std::size_t applied = 0;
      bist::FaultSimResult detected;
      probe("probe.prep", [&] {
        std::vector<bist::BitVec> stream;
        bist::Lfsr lfsr = bist::Lfsr::maximal(degree, spec.tpg.lfsr_seed);
        for (std::size_t t = 0; t < len; ++t)
          stream.push_back(lfsr.next_pattern(width));
        stream.insert(stream.end(), rep.plan.topoff.begin(),
                      rep.plan.topoff.end());
        applied = stream.size();
        blocks = bist::pack_all(stream, width);
        detected = fsim->run(blocks, spec.tpg.fsim);
      });
      bist::MisrSpec base = rep.plan.comp.misr;
      base.fold.clear();
      bist::MisrSpec chosen;
      probe("bist.fold_audit", [&] {
        chosen = bist::choose_misr_fold(*fsim, *kernel, blocks, applied,
                                        detected.first_detected, base);
      });
      std::uint64_t golden = 0;
      probe("bist.golden",
            [&] { golden = bist::misr_signature(*kernel, blocks, chosen, 0); });
      out.probes_match = chosen.fold == rep.plan.comp.misr.fold &&
                         golden == rep.plan.comp.golden;
    }
  }
  out.job_s = bist::seconds_since(job_t0);
  return out;
}

}  // namespace perfbench
