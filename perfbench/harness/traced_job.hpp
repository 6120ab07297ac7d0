#pragma once
// The traced run's job: run_plan_job's stages called one by one from outside
// the library, in its stage order, with a span around each call, plus probe
// calls that time the sweep's sub-layers on their own.

#include <cstdint>

#include "mem_fileops.hpp"
#include "pipeline/job.hpp"
#include "store/manifest.hpp"
#include "store/result_store.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Counts read at the layer boundaries of traced jobs.
struct LayerCounts {
  std::uint64_t jobs = 0;
  std::uint64_t podem_calls = 0;
  std::uint64_t podem_aborted = 0;
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_useful = 0;      ///< detected + redundant verdicts
  std::uint64_t cube_cache_hits = 0;   ///< MixedSweepStats::podem_cache_hits
  std::uint64_t cube_cache_calls = 0;  ///< MixedSweepStats::podem_calls
  std::uint64_t seeds = 0;
  std::uint64_t fallback_rows = 0;
  std::uint64_t wrapper_gates = 0;
  std::uint64_t escapes = 0;
  std::uint64_t store_lookups = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t record_bytes = 0;      ///< published store record sizes
  /// MixedSweepStats::solve_seconds: the sweep's own timing of its GF(2)
  /// solves, fold audits and golden signatures over every point.
  double sweep_solve_s = 0;

  void add(const LayerCounts& o);
};

struct TracedJob {
  JobSummary summary;
  /// The probes re-derived the plan's MISR fold and golden signature.
  bool probes_match = true;
  double job_s = 0;    ///< job span duration
  double probe_s = 0;  ///< time inside probe spans (not part of the job)
  LayerCounts counts;
};

/// Run one job stage by stage: parse, store lookup, (on a miss) kernel,
/// sweep and publish, schedule, synth, verify, journal.  Probes, parented to
/// the job span: wrapper self-simulation on every job; on a store hit the
/// SimKernel construction over the CUT that verify performs; on a miss the
/// LFSR fault-sim pass at the longest length, PODEM on the shortest
/// point's tail, and — for a compressed plan — compress_cube over the
/// scheduled point's cubes, choose_misr_fold and misr_signature over its
/// applied stream.  Throws only what the library calls throw.
TracedJob run_traced_job(const bist::JobSpec& spec, std::uint32_t job_id,
                         Tracer& tracer, bist::ResultStore& store,
                         bist::BatchManifest& manifest,
                         const MemFileOps& files);

}  // namespace perfbench
