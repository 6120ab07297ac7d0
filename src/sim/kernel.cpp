#include "sim/kernel.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace bist {

SimKernel::SimKernel(const Netlist& n) : n_(&n) {
  if (!n.frozen()) throw std::invalid_argument("SimKernel: netlist not frozen");
  const std::size_t cnt = n.gate_count();

  // Level-order renumbering (stable on GateId within a level, so the kernel
  // layout is deterministic and fanin-safe: every fanin has a lower level,
  // hence a smaller kernel index).
  order_.resize(cnt);
  std::iota(order_.begin(), order_.end(), GateId{0});
  std::stable_sort(order_.begin(), order_.end(), [&](GateId a, GateId b) {
    return n.level(a) < n.level(b);
  });
  kindex_.resize(cnt);
  for (KIndex k = 0; k < cnt; ++k) kindex_[order_[k]] = k;

  types_.resize(cnt);
  levels_.resize(cnt);
  is_output_.resize(cnt);
  fanin_offset_.assign(cnt + 1, 0);
  for (KIndex k = 0; k < cnt; ++k) {
    const Gate& gg = n.gate(order_[k]);
    types_[k] = gg.type;
    levels_[k] = n.level(order_[k]);
    is_output_[k] = n.is_output(order_[k]);
    fanin_offset_[k + 1] = fanin_offset_[k] +
                           static_cast<std::uint32_t>(gg.fanins.size());
  }
  fanin_flat_.reserve(fanin_offset_[cnt]);
  for (KIndex k = 0; k < cnt; ++k)
    for (GateId f : n.gate(order_[k]).fanins)
      fanin_flat_.push_back(kindex_[f]);

  fanout_offset_.assign(cnt + 1, 0);
  for (KIndex f : fanin_flat_) ++fanout_offset_[f + 1];
  for (std::size_t i = 1; i <= cnt; ++i) fanout_offset_[i] += fanout_offset_[i - 1];
  fanout_flat_.assign(fanout_offset_[cnt], 0);
  std::vector<std::uint32_t> cursor(fanout_offset_.begin(), fanout_offset_.end() - 1);
  for (KIndex k = 0; k < cnt; ++k)
    for (KIndex f : fanins(k)) fanout_flat_[cursor[f]++] = k;

  inputs_.reserve(n.inputs().size());
  for (GateId g : n.inputs()) inputs_.push_back(kindex_[g]);
  outputs_.reserve(n.outputs().size());
  for (GateId g : n.outputs()) outputs_.push_back(kindex_[g]);
  max_level_ = n.max_level();

  ops_.assign(cnt, MicroOp::Copy);
  inv_.assign(cnt, 0);
  for (KIndex k = 0; k < cnt; ++k) {
    switch (types_[k]) {
      case GateType::And: ops_[k] = MicroOp::And; break;
      case GateType::Nand: ops_[k] = MicroOp::And; inv_[k] = ~std::uint64_t{0}; break;
      case GateType::Or: ops_[k] = MicroOp::Or; break;
      case GateType::Nor: ops_[k] = MicroOp::Or; inv_[k] = ~std::uint64_t{0}; break;
      case GateType::Xor: ops_[k] = MicroOp::Xor; break;
      case GateType::Xnor: ops_[k] = MicroOp::Xor; inv_[k] = ~std::uint64_t{0}; break;
      case GateType::Not: inv_[k] = ~std::uint64_t{0}; break;
      case GateType::Buf:
      case GateType::Input:
      case GateType::Const0:
      case GateType::Const1: break;
    }
  }

  schedule_.reserve(cnt - inputs_.size());
  for (KIndex k = 0; k < cnt; ++k) {
    if (types_[k] == GateType::Input) continue;
    if (fanin_offset_[k] == fanin_offset_[k + 1]) {
      constants_.push_back(k);  // Const0/Const1
    } else {
      schedule_.push_back(k);
    }
  }
  // schedule_ ascends in kernel index, hence in level; bucket it per level so
  // the parallel evaluation path can treat levels as barriers.
  schedule_level_offset_.assign(max_level_ + 2, 0);
  for (KIndex g : schedule_) ++schedule_level_offset_[levels_[g] + 1];
  for (std::size_t l = 1; l < schedule_level_offset_.size(); ++l)
    schedule_level_offset_[l] += schedule_level_offset_[l - 1];

  // FFR decomposition.  A gate's unique fanout has a strictly higher level,
  // hence a larger kernel index, so one reverse sweep resolves every stem
  // root: stems point to themselves, everything else inherits its single
  // fanout's root.
  stem_.resize(cnt);
  stem_ordinal_.assign(cnt, 0);
  for (KIndex k = static_cast<KIndex>(cnt); k-- > 0;) {
    const std::uint32_t nfo = fanout_offset_[k + 1] - fanout_offset_[k];
    stem_[k] = (nfo != 1 || is_output_[k]) ? k : stem_[fanout_flat_[fanout_offset_[k]]];
  }
  for (KIndex k = 0; k < cnt; ++k) {
    if (stem_[k] != k) continue;
    stem_ordinal_[k] = static_cast<std::uint32_t>(stems_.size());
    stems_.push_back(k);  // ascending kernel index == level order
  }
  ffr_offset_.assign(stems_.size() + 1, 0);
  for (KIndex k = 0; k < cnt; ++k) ++ffr_offset_[stem_ordinal_[stem_[k]] + 1];
  for (std::size_t s = 1; s <= stems_.size(); ++s) ffr_offset_[s] += ffr_offset_[s - 1];
  ffr_members_.assign(cnt, 0);
  std::vector<std::uint32_t> fcur(ffr_offset_.begin(), ffr_offset_.end() - 1);
  for (KIndex k = 0; k < cnt; ++k)
    ffr_members_[fcur[stem_ordinal_[stem_[k]]]++] = k;
}

template <unsigned W>
WideSimT<W>::WideSimT(const SimKernel& k)
    : k_(&k), values_(k.gate_count(), w_zero<Word>()) {
  // Constants never change; evaluate them once here.
  for (KIndex c : k.constants())
    values_[c] = w_broadcast<Word>(
        k.type(c) == GateType::Const1 ? ~std::uint64_t{0} : 0);
}

template <unsigned W>
typename WideSimT<W>::Word WideSimT<W>::group_lane_mask(
    std::span<const PatternBlock> blocks) {
  if constexpr (W == 1) {
    return blocks.empty() ? 0 : blocks[0].lane_mask();
  } else {
    Word m = w_zero<Word>();
    for (unsigned j = 0; j < W && j < blocks.size(); ++j)
      m.w[j] = blocks[j].lane_mask();
    return m;
  }
}

namespace {

template <unsigned W>
void apply_block_inputs(const SimKernel& k, std::span<const PatternBlock> blocks,
                        SimWord<W>* values) {
  if (blocks.empty() || blocks.size() > W)
    throw std::invalid_argument("WideSimT: block group size must be 1..W");
  for (const PatternBlock& b : blocks)
    if (b.width != k.inputs().size())
      throw std::invalid_argument("WideSimT: block width mismatch");
  const std::span<const KIndex> pis = k.inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    if constexpr (W == 1) {
      values[pis[i]] = blocks[0].input_words[i];
    } else {
      SimWord<W> v = w_zero<SimWord<W>>();
      for (unsigned j = 0; j < blocks.size(); ++j)
        v.w[j] = blocks[j].input_words[i];
      values[pis[i]] = v;
    }
  }
}

}  // namespace

template <unsigned W>
void WideSimT<W>::simulate(std::span<const PatternBlock> blocks) {
  apply_block_inputs<W>(*k_, blocks, values_.data());

  const MicroOp* op = k_->op_data();
  const std::uint64_t* inv = k_->invert_data();
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  Word* val = values_.data();

  for (KIndex g : k_->schedule()) {
    val[g] = eval_reduce(op[g], inv[g], off[g], off[g + 1],
                         [&](std::uint32_t i) { return val[fi[i]]; });
  }
}

template <unsigned W>
void WideSimT<W>::simulate(std::span<const PatternBlock> blocks,
                           WorkerPool* pool) {
  if (pool == nullptr || pool->workers() <= 1) {
    simulate(blocks);
    return;
  }
  apply_block_inputs<W>(*k_, blocks, values_.data());

  const MicroOp* op = k_->op_data();
  const std::uint64_t* inv = k_->invert_data();
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  Word* val = values_.data();
  const KIndex* sched = k_->schedule().data();
  const std::span<const std::uint32_t> lvl_off = k_->schedule_level_offsets();

  // A level below this many gates is cheaper to evaluate inline than to
  // dispatch (a parallel_for costs a pool wake + join).
  constexpr std::size_t kMinParallelLevel = 256;

  for (std::size_t l = 0; l + 1 < lvl_off.size(); ++l) {
    const std::uint32_t b = lvl_off[l], e = lvl_off[l + 1];
    const std::size_t n = e - b;
    if (n == 0) continue;
    auto eval_one = [&](std::uint32_t s) {
      const KIndex g = sched[s];
      val[g] = eval_reduce(op[g], inv[g], off[g], off[g + 1],
                           [&](std::uint32_t i) { return val[fi[i]]; });
    };
    if (n < kMinParallelLevel) {
      for (std::uint32_t s = b; s < e; ++s) eval_one(s);
    } else {
      // Gates within a level never feed each other: each slot is written by
      // exactly one worker and only lower levels are read, so the values are
      // identical to the serial pass for every worker count and chunking.
      const std::size_t grain =
          std::max<std::size_t>(64, n / (std::size_t{4} * pool->workers()));
      parallel_for(*pool, n, grain,
                   [&](unsigned, std::size_t cb, std::size_t ce) {
                     for (std::size_t s = cb; s < ce; ++s)
                       eval_one(b + static_cast<std::uint32_t>(s));
                   });
    }
  }
}

template class WideSimT<1>;
template class WideSimT<4>;

}  // namespace bist
