#include "fault/fault_sim.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace bist {
namespace {

// One cleared queue per level, each reserved to the gate count at that
// level, so the event-driven propagation loops never reallocate.
void reserve_level_queues(const SimKernel& k,
                          std::vector<std::vector<KIndex>>& queues) {
  queues.resize(k.max_level() + 1);
  std::vector<std::uint32_t> per_level(k.max_level() + 1, 0);
  const std::uint32_t* lvl = k.level_data();
  for (std::size_t g = 0; g < k.gate_count(); ++g) ++per_level[lvl[g]];
  for (unsigned lv = 0; lv <= k.max_level(); ++lv) {
    queues[lv].clear();
    queues[lv].reserve(per_level[lv]);
  }
}

// Per-worker event-driven propagation scratch (kernel-index space), reset
// via touched_list after each stem.  Capacities are reserved up front so
// the hot loops never reallocate.
template <unsigned W>
struct FfrScratch {
  using Word = SimWord<W>;
  std::vector<Word> fval;
  std::vector<char> touched;
  std::vector<KIndex> touched_list;
  std::vector<std::vector<KIndex>> level_queues;
  std::vector<char> queued;
  /// Per-fault stem words of the group being processed, indexed by position
  /// in the group's live list (worker-local: stem words never cross the
  /// worker/reduction boundary, unlike the shared det slots).
  std::vector<Word> stem_words;
  /// Faulty-gate evaluations this worker performed, reduced serially after
  /// the run.  Lives in the (large) per-worker scratch object rather than a
  /// shared dense array so the per-chunk flush does not bounce one cache
  /// line between all workers.
  std::uint64_t evals = 0;

  void init(const SimKernel& k) {
    const std::size_t cnt = k.gate_count();
    fval.assign(cnt, w_zero<Word>());
    touched.assign(cnt, 0);
    touched_list.clear();
    touched_list.reserve(cnt);
    queued.assign(cnt, 0);
    reserve_level_queues(k, level_queues);
  }
};

// Stem word of fault f: the lanes (within `lanes`) on which f flips its FFR
// stem root's output.  The walk from the site to the stem follows unique
// fanouts — one gate re-evaluation per step — and stops early when the
// divergence dies inside the region.
template <unsigned W>
SimWord<W> local_stem_word(const SimKernel& k, const Fault& f,
                           const SimWord<W>* good, SimWord<W> lanes,
                           std::uint64_t* evals) {
  using Word = SimWord<W>;
  const KIndex site = k.index_of(f.gate);
  const Word stuck_word = w_broadcast<Word>(f.stuck ? ~std::uint64_t{0} : 0);
  const MicroOp* op = k.op_data();
  const std::uint64_t* inv = k.invert_data();
  const std::uint32_t* off = k.fanin_offset_data();
  const KIndex* fi = k.fanin_data();

  Word val;
  if (f.is_output_fault()) {
    val = stuck_word;
  } else {
    // Branch fault: re-evaluate the site gate with the faulted pin forced.
    // Fanin order is preserved by the kernel renumbering, so pin j of the
    // netlist gate is slot b+j of the kernel CSR row.
    const std::uint32_t b = off[site];
    const std::uint32_t forced = b + static_cast<std::uint32_t>(f.pin);
    val = eval_reduce(op[site], inv[site], b, off[site + 1],
                      [&](std::uint32_t i) {
                        return i == forced ? stuck_word : good[fi[i]];
                      });
    ++*evals;
  }
  Word diff = (val ^ good[site]) & lanes;

  const KIndex stem = k.stem_of(site);
  const std::uint32_t* fo_off = k.fanout_offset_data();
  const KIndex* fo = k.fanout_data();
  KIndex cur = site;
  while (cur != stem && w_any(diff)) {
    const KIndex next = fo[fo_off[cur]];  // unique fanout inside the FFR
    val = eval_reduce(op[next], inv[next], off[next], off[next + 1],
                      [&](std::uint32_t i) {
                        return fi[i] == cur ? val : good[fi[i]];
                      });
    ++*evals;
    diff = (val ^ good[next]) & lanes;
    cur = next;
  }
  return diff;
}

// One event-driven cone propagation from `stem` for a flip word `diff`
// (subset of `lanes`): returns the lanes on which the stem flip reaches a
// primary output.  Lanes are independent in 2-valued simulation, so the
// result is exact per lane even when `diff` ORs several faults' stem words.
// `out_hits`, when given, receives (output gate, flipped lanes) for every
// primary-output gate the flip reaches.
template <unsigned W>
SimWord<W> propagate_stem(
    const SimKernel& k, KIndex stem, SimWord<W> diff, const SimWord<W>* good,
    SimWord<W> lanes, FfrScratch<W>& s, std::uint64_t* evals,
    std::vector<std::pair<KIndex, SimWord<W>>>* out_hits = nullptr) {
  using Word = SimWord<W>;
  const MicroOp* op = k.op_data();
  const std::uint64_t* inv = k.invert_data();
  const std::uint32_t* off = k.fanin_offset_data();
  const KIndex* fi = k.fanin_data();
  const std::uint32_t* fo_off = k.fanout_offset_data();
  const KIndex* fo = k.fanout_data();
  const std::uint32_t* lvl = k.level_data();
  const char* is_out = k.is_output_data();
  const unsigned max_lv = k.max_level();

  Word det = w_zero<Word>();
  s.fval[stem] = good[stem] ^ diff;
  s.touched[stem] = 1;
  s.touched_list.push_back(stem);
  if (is_out[stem]) {
    det = diff;
    if (out_hits) out_hits->emplace_back(stem, diff);
  }

  unsigned lo_level = max_lv + 1;
  for (std::uint32_t i = fo_off[stem]; i < fo_off[stem + 1]; ++i) {
    const KIndex u = fo[i];
    if (!s.queued[u]) {
      s.queued[u] = 1;
      s.level_queues[lvl[u]].push_back(u);
      lo_level = std::min(lo_level, static_cast<unsigned>(lvl[u]));
    }
  }
  for (unsigned lq = lo_level; lq <= max_lv; ++lq) {
    auto& q = s.level_queues[lq];
    for (const KIndex u : q) {
      s.queued[u] = 0;
      const Word v = eval_reduce(op[u], inv[u], off[u], off[u + 1],
                                 [&](std::uint32_t i) {
                                   const KIndex w = fi[i];
                                   return s.touched[w] ? s.fval[w] : good[w];
                                 });
      ++*evals;
      const Word d = (v ^ good[u]) & lanes;
      if (!w_any(d)) continue;  // divergence dies here
      s.fval[u] = v;
      s.touched[u] = 1;
      s.touched_list.push_back(u);
      if (is_out[u]) {
        det |= d;
        if (out_hits) out_hits->emplace_back(u, d);
      }
      for (std::uint32_t i = fo_off[u]; i < fo_off[u + 1]; ++i) {
        const KIndex w = fo[i];
        if (!s.queued[w]) {
          s.queued[w] = 1;
          s.level_queues[lvl[w]].push_back(w);
        }
      }
    }
    q.clear();
  }
  for (const KIndex u : s.touched_list) s.touched[u] = 0;
  s.touched_list.clear();
  return det;
}

}  // namespace

std::vector<std::uint32_t> FaultSimResult::tail_at(std::size_t length) const {
  std::vector<std::uint32_t> tail;
  for (std::size_t i = 0; i < first_detected.size(); ++i) {
    const std::int64_t fd = first_detected[i];
    if (fd < 0 || fd >= static_cast<std::int64_t>(length))
      tail.push_back(static_cast<std::uint32_t>(i));
  }
  return tail;
}

FaultSimResult FaultSimulator::prefix_result(const FaultSimResult& full,
                                             std::size_t length) const {
  if (full.first_detected.size() != faults_.size())
    throw std::invalid_argument("prefix_result: fault list mismatch");
  FaultSimResult r;
  // Lengths beyond the run clamp to the run (the full result *is* the prefix
  // at any longer length); length 0 degenerates to the empty-prefix result.
  // Exception: when `full` itself stopped early (deadline/cancel), a longer
  // length is NOT answered by the truncated run — the clamped data is still
  // returned, but the stop status is propagated so the caller can tell.
  if (length > full.patterns && !full.status.ok()) r.status = full.status;
  length = std::min(length, full.patterns);
  r.total_faults = full.total_faults;
  r.sim_faults = full.sim_faults;
  r.total_weight = full.total_weight;
  r.patterns = length;
  r.threads = full.threads;
  r.word_width = full.word_width;
  r.faulty_gate_evals = full.faulty_gate_evals;
  r.first_detected = full.first_detected;
  for (std::size_t f = 0; f < r.first_detected.size(); ++f) {
    std::int64_t& fd = r.first_detected[f];
    if (fd >= static_cast<std::int64_t>(length)) {
      fd = -1;
    } else if (fd >= 0) {
      ++r.detected;
      r.detected_weight += weights_[f];
    }
  }
  return r;
}

FaultSimulator::FaultSimulator(const SimKernel& k) : k_(&k) {
  const auto all = enumerate_faults(k.netlist());
  total_faults_ = all.size();
  CollapsedFaults c = collapse_faults_sized(k.netlist(), all);
  faults_ = std::move(c.faults);
  weights_ = std::move(c.class_size);
  total_weight_ = std::accumulate(weights_.begin(), weights_.end(),
                                  std::uint64_t{0});
  init_scratch();
  build_stem_groups();
}

FaultSimulator::FaultSimulator(const SimKernel& k, std::vector<Fault> faults,
                               std::size_t total_faults,
                               std::vector<std::uint32_t> weights)
    : k_(&k), faults_(std::move(faults)), weights_(std::move(weights)),
      total_faults_(total_faults) {
  if (weights_.empty()) weights_.assign(faults_.size(), 1);
  if (weights_.size() != faults_.size())
    throw std::invalid_argument("FaultSimulator: weights/faults size mismatch");
  total_weight_ = std::accumulate(weights_.begin(), weights_.end(),
                                  std::uint64_t{0});
  init_scratch();
  build_stem_groups();
}

FaultSimulator::~FaultSimulator() = default;

void FaultSimulator::init_scratch() {
  const std::size_t cnt = k_->gate_count();
  fval_.assign(cnt, 0);
  touched_.assign(cnt, 0);
  touched_list_.reserve(cnt);
  queued_.assign(cnt, 0);
  reserve_level_queues(*k_, level_queues_);
}

void FaultSimulator::build_stem_groups() {
  // Bucket sim faults by the stem ordinal of their site gate; only non-empty
  // groups are kept, in stem level order, faults in list order within each.
  const std::size_t nstems = k_->stem_count();
  std::vector<std::uint32_t> count(nstems, 0);
  std::vector<std::uint32_t> ord(faults_.size());
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    ord[f] = k_->stem_ordinal(k_->index_of(faults_[f].gate));
    ++count[ord[f]];
  }
  std::vector<std::uint32_t> group_of(nstems, 0);
  group_stem_.clear();
  group_offset_.assign(1, 0);
  for (std::uint32_t s = 0; s < nstems; ++s) {
    if (!count[s]) continue;
    group_of[s] = static_cast<std::uint32_t>(group_stem_.size());
    group_stem_.push_back(k_->stems()[s]);
    group_offset_.push_back(group_offset_.back() + count[s]);
  }
  group_faults_.assign(faults_.size(), 0);
  std::vector<std::uint32_t> cur(group_offset_.begin(), group_offset_.end() - 1);
  for (std::size_t f = 0; f < faults_.size(); ++f)
    group_faults_[cur[group_of[ord[f]]]++] = static_cast<std::uint32_t>(f);
}

std::uint64_t FaultSimulator::propagate_fault(const Fault& f,
                                              const std::uint64_t* good,
                                              std::uint64_t lanes,
                                              std::uint64_t* evals,
                                              std::uint64_t* po_diffs) {
  const KIndex site = k_->index_of(f.gate);
  const std::uint64_t stuck_word = f.stuck ? ~std::uint64_t{0} : 0;
  const MicroOp* op = k_->op_data();
  const std::uint64_t* inv = k_->invert_data();
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  const std::uint32_t* fo_off = k_->fanout_offset_data();
  const KIndex* fo = k_->fanout_data();
  const std::uint32_t* lvl = k_->level_data();
  const char* is_out = k_->is_output_data();
  const unsigned max_lv = k_->max_level();

  std::uint64_t site_val;
  if (f.is_output_fault()) {
    site_val = stuck_word;
  } else {
    // Branch fault: re-evaluate the site gate with the faulted pin forced.
    const std::uint32_t b = off[site];
    const std::uint32_t forced = b + static_cast<std::uint32_t>(f.pin);
    // Fanin order is preserved by the kernel renumbering, so pin j of the
    // netlist gate is slot b+j of the kernel CSR row.
    site_val = eval_reduce(op[site], inv[site], b, off[site + 1],
                           [&](std::uint32_t i) {
                             return i == forced ? stuck_word : good[fi[i]];
                           });
    ++*evals;
  }
  const std::size_t n_outs = k_->outputs().size();
  if (po_diffs)
    for (std::size_t i = 0; i < n_outs; ++i) po_diffs[i] = 0;
  const std::uint64_t site_diff = (site_val ^ good[site]) & lanes;
  if (!site_diff) return 0;  // fault not activated by any lane

  std::uint64_t det = 0;
  fval_[site] = site_val;
  touched_[site] = 1;
  touched_list_.push_back(site);
  if (is_out[site]) det |= site_diff;

  unsigned lo_level = max_lv + 1;
  for (std::uint32_t i = fo_off[site]; i < fo_off[site + 1]; ++i) {
    const KIndex u = fo[i];
    if (!queued_[u]) {
      queued_[u] = 1;
      level_queues_[lvl[u]].push_back(u);
      lo_level = std::min(lo_level, static_cast<unsigned>(lvl[u]));
    }
  }
  for (unsigned lq = lo_level; lq <= max_lv; ++lq) {
    auto& q = level_queues_[lq];
    for (const KIndex u : q) {
      queued_[u] = 0;
      const std::uint64_t v =
          eval_reduce(op[u], inv[u], off[u], off[u + 1], [&](std::uint32_t i) {
            const KIndex w = fi[i];
            return touched_[w] ? fval_[w] : good[w];
          });
      ++*evals;
      if (((v ^ good[u]) & lanes) == 0) continue;  // divergence dies here
      fval_[u] = v;
      touched_[u] = 1;
      touched_list_.push_back(u);
      if (is_out[u]) det |= (v ^ good[u]) & lanes;
      for (std::uint32_t i = fo_off[u]; i < fo_off[u + 1]; ++i) {
        const KIndex w = fo[i];
        if (!queued_[w]) {
          queued_[w] = 1;
          level_queues_[lvl[w]].push_back(w);
        }
      }
    }
    q.clear();
  }

  if (po_diffs) {
    const auto outs = k_->outputs();
    for (std::size_t i = 0; i < n_outs; ++i) {
      const KIndex o = outs[i];
      if (touched_[o]) po_diffs[i] = (fval_[o] ^ good[o]) & lanes;
    }
  }
  for (const KIndex u : touched_list_) touched_[u] = 0;
  touched_list_.clear();
  return det;
}

// The sweep's state behind OutputDiffSweep's buffers: the joined faults per
// stem group (a CSR filtered from the simulator's static grouping, in list
// order), one good-machine simulator and one propagation scratch.
struct OutputDiffSweep::Engine {
  static constexpr unsigned W = kMaxWordWidth;
  const FaultSimulator& fsim;
  std::span<const PatternBlock> blocks;
  std::span<const std::uint32_t> join;
  std::vector<std::uint32_t> live_offset;  ///< per stem group, into live
  std::vector<std::uint32_t> live;
  std::size_t next_block = 0;
  WideSimT<W> good;
  FfrScratch<W> s;
  std::uint64_t evals = 0;

  Engine(const FaultSimulator& f, std::span<const PatternBlock> b,
         std::span<const std::uint32_t> j)
      : fsim(f), blocks(b), join(j), good(*f.k_) {
    s.init(*f.k_);
  }
};

OutputDiffSweep::OutputDiffSweep(const FaultSimulator& fsim,
                                 std::span<const PatternBlock> blocks,
                                 std::span<const std::uint32_t> join) {
  if (join.size() != fsim.faults_.size())
    throw std::invalid_argument("OutputDiffSweep: fault list mismatch");
  e_ = std::make_unique<Engine>(fsim, blocks, join);
  Engine& e = *e_;
  const std::size_t ngroups = fsim.group_stem_.size();
  e.live_offset.reserve(ngroups + 1);
  e.live_offset.push_back(0);
  e.next_block = blocks.size();
  for (std::size_t g = 0; g < ngroups; ++g) {
    for (std::uint32_t i = fsim.group_offset_[g];
         i < fsim.group_offset_[g + 1]; ++i) {
      const std::uint32_t f = fsim.group_faults_[i];
      if (join[f] >= blocks.size()) continue;
      e.live.push_back(f);
      e.next_block = std::min<std::size_t>(e.next_block, join[f]);
    }
    e.live_offset.push_back(static_cast<std::uint32_t>(e.live.size()));
  }
}

OutputDiffSweep::~OutputDiffSweep() = default;

bool OutputDiffSweep::next() {
  constexpr unsigned W = Engine::W;
  Engine& e = *e_;
  const FaultSimulator& fsim = e.fsim;
  const SimKernel& k = *fsim.k_;
  stems_.clear();
  words_.clear();
  hits_.clear();
  if (e.next_block >= e.blocks.size()) {
    nb_ = 0;
    return false;
  }
  b0_ = e.next_block;
  nb_ = std::min<std::size_t>(W, e.blocks.size() - b0_);
  e.next_block += nb_;
  const auto grp = e.blocks.subspan(b0_, nb_);
  e.good.simulate(grp);
  // Live lanes per block; joined_from[j] keeps only sub-blocks >= j, the
  // lanes of a fault that joins at sub-block j.
  Word joined_from[W];
  Word lanes = w_zero<Word>();
  for (std::size_t j = nb_; j-- > 0;) {
    w_sub(lanes, j) = grp[j].lane_mask();
    joined_from[j] = lanes;
  }
  const Word* gv = e.good.values().data();

  for (std::size_t g = 0; g + 1 < e.live_offset.size(); ++g) {
    const std::size_t w0 = words_.size();
    Word acc = w_zero<Word>();
    for (std::uint32_t i = e.live_offset[g]; i < e.live_offset[g + 1]; ++i) {
      const std::uint32_t f = e.live[i];
      const std::size_t jb = e.join[f];
      if (jb >= b0_ + nb_) continue;  // joins at a later group
      const Word sw = local_stem_word<W>(
          k, fsim.faults_[f], gv, joined_from[jb > b0_ ? jb - b0_ : 0],
          &e.evals);
      if (!w_any(sw)) continue;
      words_.emplace_back(f, sw);
      acc |= sw;
    }
    if (!w_any(acc)) continue;
    const std::size_t h0 = hits_.size();
    const Word obs = propagate_stem<W>(k, fsim.group_stem_[g], acc, gv, lanes,
                                       e.s, &e.evals, &hits_);
    std::size_t keep = w0;
    for (std::size_t i = w0; i < words_.size(); ++i)
      if (w_any(words_[i].second & obs)) words_[keep++] = words_[i];
    words_.resize(keep);
    if (keep > w0)
      stems_.push_back({static_cast<std::uint32_t>(words_.size()),
                        static_cast<std::uint32_t>(hits_.size())});
    else
      hits_.resize(h0);
  }
  return true;
}

FaultSimResult FaultSimulator::run(std::span<const PatternBlock> blocks,
                                   const FaultSimOptions& opt,
                                   const Deadline* deadline) {
  if (opt.word_width == kMaxWordWidth)
    return run_ffr<kMaxWordWidth>(blocks, opt, deadline);
  return run_ffr<1>(blocks, opt, deadline);
}

template <unsigned W>
FaultSimResult FaultSimulator::run_ffr(std::span<const PatternBlock> blocks,
                                       const FaultSimOptions& opt,
                                       const Deadline* deadline) {
  using Word = SimWord<W>;
  FaultSimResult r;
  r.total_faults = total_faults_;
  r.sim_faults = faults_.size();
  r.total_weight = total_weight_;
  r.first_detected.assign(faults_.size(), -1);
  r.word_width = W;

  const unsigned workers = resolve_threads(opt.threads);
  if (!pool_ || pool_->workers() != workers)
    pool_ = std::make_unique<WorkerPool>(workers);
  WorkerPool& pool = *pool_;
  r.threads = pool.workers();

  // Live fault lists per stem group; dropping shrinks a group in place.
  const std::size_t ngroups = group_stem_.size();
  std::vector<std::vector<std::uint32_t>> live(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g)
    live[g].assign(group_faults_.begin() + group_offset_[g],
                   group_faults_.begin() + group_offset_[g + 1]);

  WideSimT<W> good(*k_);
  std::size_t max_group = 0;
  for (std::size_t g = 0; g < ngroups; ++g)
    max_group = std::max<std::size_t>(max_group,
                                      group_offset_[g + 1] - group_offset_[g]);
  std::vector<FfrScratch<W>> scratch(pool.workers());
  for (auto& s : scratch) {
    s.init(*k_);
    s.stem_words.assign(max_group, w_zero<Word>());
  }
  // Per-fault detection slots, written by the owning worker only (each fault
  // lives in exactly one stem group), read in the serial reduction.
  std::vector<Word> det(faults_.size(), w_zero<Word>());

  std::size_t base = 0;
  std::size_t bi = 0;
  while (bi < blocks.size()) {
    // One cooperative check per block group: stop latency is bounded by a
    // single group's good-machine + stem-stage cost, and the check touches
    // nothing the detection math depends on, so a stopped run is the exact
    // prefix of an uninterrupted one.
    if (deadline && deadline->should_stop()) {
      r.status = deadline->stop_status("fault_sim");
      break;
    }
    const std::size_t nb = WideSimT<W>::group_size(blocks, bi);
    const std::span<const PatternBlock> grp = blocks.subspan(bi, nb);
    std::size_t grp_patterns = 0;
    for (const PatternBlock& b : grp) grp_patterns += b.count;

    if (r.detected == faults_.size()) {  // nothing left to detect
      base += grp_patterns;
      bi += nb;
      continue;
    }

    // Good-machine pass, wide levels split across the same pool the stem
    // stage uses (strictly before the stem parallel_for — the pool is not
    // reentrant).  Values are bit-identical to the serial pass, so every
    // downstream detection result is unchanged.
    good.simulate(grp, &pool);
    const Word lanes = WideSimT<W>::group_lane_mask(grp);
    const Word* gv = good.values().data();

    // Dynamic grain-1 chunking: stem-group cost is skewed (cone size varies
    // by orders of magnitude), so workers pull one group at a time.
    parallel_for(pool, ngroups, 1,
                 [&](unsigned wid, std::size_t gb, std::size_t ge) {
      FfrScratch<W>& s = scratch[wid];
      std::uint64_t ev = 0;
      for (std::size_t g = gb; g < ge; ++g) {
        const auto& lf = live[g];
        if (lf.empty()) continue;
        Word acc = w_zero<Word>();
        for (std::size_t i = 0; i < lf.size(); ++i) {
          const Word sw =
              local_stem_word<W>(*k_, faults_[lf[i]], gv, lanes, &ev);
          s.stem_words[i] = sw;
          acc |= sw;
        }
        if (!w_any(acc)) continue;  // every fault died inside the region
        const Word obs =
            propagate_stem<W>(*k_, group_stem_[g], acc, gv, lanes, s, &ev);
        if (!w_any(obs)) continue;
        for (std::size_t i = 0; i < lf.size(); ++i)
          det[lf[i]] = s.stem_words[i] & obs;
      }
      s.evals += ev;
    });

    // Serial reduction: per-fault results are independent, so visiting them
    // in any fixed order yields identical counts for every worker count and
    // work assignment.
    for (std::size_t g = 0; g < ngroups; ++g) {
      auto& lf = live[g];
      for (std::size_t i = 0; i < lf.size();) {
        const std::uint32_t fidx = lf[i];
        const Word d = det[fidx];
        det[fidx] = w_zero<Word>();
        if (w_any(d)) {
          r.first_detected[fidx] =
              static_cast<std::int64_t>(base) + w_first_lane(d);
          ++r.detected;
          r.detected_weight += weights_[fidx];
          lf[i] = lf.back();
          lf.pop_back();
          continue;
        }
        ++i;
      }
    }
    base += grp_patterns;
    bi += nb;
  }
  r.patterns = base;
  for (const FfrScratch<W>& s : scratch) r.faulty_gate_evals += s.evals;
  return r;
}

}  // namespace bist
