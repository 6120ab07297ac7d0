#include "bist/verify.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "bist/area.hpp"
#include "sim/kernel.hpp"
#include "tpg/lfsr.hpp"

namespace bist {
namespace {

GateId require_net(const Netlist& n, const std::string& name) {
  const GateId g = n.find(name);
  if (g == kNoGate)
    throw std::runtime_error("wrapper net missing: " + name);
  return g;
}

std::vector<GateId> require_nets(const Netlist& n, const char* prefix,
                                 std::size_t count) {
  std::vector<GateId> g(count);
  for (std::size_t i = 0; i < count; ++i)
    g[i] = require_net(n, prefix + std::to_string(i));
  return g;
}

/// Every wrapper net the harnesses read or drive, resolved once.
struct WrapperNets {
  std::vector<GateId> lfsr_in, lfsr_out, cnt_in, cnt_out, misr_in, misr_out;
  std::vector<GateId> cut_in;
  GateId sign_ok = kNoGate;

  WrapperNets(const Netlist& wrapper, const Netlist& cut, unsigned D,
              std::size_t C, unsigned K)
      : lfsr_in(require_nets(wrapper, "bist_lfsr_s", D)),
        lfsr_out(require_nets(wrapper, "bist_lfsr_n", D)),
        cnt_in(require_nets(wrapper, "bist_cnt_s", C)),
        cnt_out(require_nets(wrapper, "bist_cnt_n", C)),
        misr_in(require_nets(wrapper, "bist_misr_s", K)),
        misr_out(require_nets(wrapper, "bist_misr_n", K)) {
    if (K > 0) sign_ok = require_net(wrapper, "bist_sign_ok");
    for (const GateId g : cut.inputs())
      cut_in.push_back(require_net(wrapper, "cut_" + cut.gate(g).name));
  }
};

unsigned misr_bits(const BistPlan& plan) {
  return plan.comp.enabled && plan.comp.misr.enabled() ? plan.comp.misr.degree
                                                       : 0;
}

std::uint64_t low_lanes(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// One register's predicted states across a frame, as lane words: now[i]
/// lane t is bit i of the state at the lane's cycle, next[i] of the cycle
/// after.
struct LaneStates {
  std::vector<std::uint64_t> now, next;
  explicit LaneStates(std::size_t bits) : now(bits), next(bits) {}
  void clear() {
    std::fill(now.begin(), now.end(), 0);
    std::fill(next.begin(), next.end(), 0);
  }
  /// OR in per-lane values (lane t: register at cycle t, at cycle t+1).
  void add(std::array<std::uint64_t, 64> at,
           std::array<std::uint64_t, 64> after) {
    transpose64(at);
    transpose64(after);
    for (std::size_t i = 0; i < now.size(); ++i) {
      now[i] |= at[i];
      next[i] |= after[i];
    }
  }
};

}  // namespace

WrapperSimResult simulate_wrapper(const Netlist& wrapper, const Netlist& cut,
                                  const BistPlan& plan,
                                  const Deadline* deadline) {
  const unsigned D = plan.lfsr_degree;
  const std::size_t total = plan.test_time;
  const std::size_t C = counter_width(total);
  const std::size_t w = cut.input_count();
  const unsigned K = misr_bits(plan);
  const WrapperNets nets(wrapper, cut, D, C, K);

  const SimKernel k(wrapper);
  KernelSim sim(k);

  const std::uint64_t mask =
      D == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << D) - 1);
  std::uint64_t lfsr_state = plan.lfsr_seed & mask;
  std::uint64_t counter = 0;
  std::uint64_t misr_state = 0;

  PatternBlock blk;
  blk.width = wrapper.input_count();
  blk.count = 1;
  blk.input_words.assign(blk.width, 0);

  WrapperSimResult r;
  r.applied.reserve(total);
  for (std::size_t cycle = 0; cycle < total; ++cycle) {
    // One wrapper evaluation per poll: bounded stop latency, and the applied
    // prefix stays exact (the checks read nothing the state depends on).
    if (deadline && deadline->should_stop()) {
      r.status = deadline->stop_status("simulate_wrapper");
      break;
    }
    for (auto& word : blk.input_words) word = 0;
    for (unsigned i = 0; i < D; ++i)
      if ((lfsr_state >> i) & 1)
        blk.input_words[wrapper.input_index(nets.lfsr_in[i])] = 1;
    for (std::size_t i = 0; i < C; ++i)
      if ((counter >> i) & 1)
        blk.input_words[wrapper.input_index(nets.cnt_in[i])] = 1;
    for (unsigned i = 0; i < K; ++i)
      if ((misr_state >> i) & 1)
        blk.input_words[wrapper.input_index(nets.misr_in[i])] = 1;
    sim.simulate(blk);

    BitVec pat(w);
    for (std::size_t i = 0; i < w; ++i)
      pat.set(i, sim.value(nets.cut_in[i]) & 1);
    r.applied.push_back(std::move(pat));

    std::uint64_t next_state = 0, next_counter = 0, next_misr = 0;
    for (unsigned i = 0; i < D; ++i)
      next_state |= std::uint64_t(sim.value(nets.lfsr_out[i]) & 1) << i;
    for (std::size_t i = 0; i < C; ++i)
      next_counter |= std::uint64_t(sim.value(nets.cnt_out[i]) & 1) << i;
    for (unsigned i = 0; i < K; ++i)
      next_misr |= std::uint64_t(sim.value(nets.misr_out[i]) & 1) << i;
    lfsr_state = next_state;
    counter = next_counter;
    misr_state = next_misr;
    if (K > 0 && cycle + 1 == total) r.sign_ok = sim.value(nets.sign_ok) & 1;
  }
  r.final_lfsr_state = lfsr_state;
  r.final_counter = counter;
  r.final_misr = misr_state;
  return r;
}

WrapperVerification verify_wrapper(const Netlist& wrapper, const Netlist& cut,
                                   const BistPlan& plan,
                                   const MixedSchemeResult& point,
                                   const FaultSimOptions& fopt,
                                   const Deadline* dl) {
  const unsigned D = plan.lfsr_degree;
  const std::size_t total = plan.test_time;
  const std::size_t L = plan.lfsr_patterns;
  const std::size_t T = plan.topoff.size();
  const std::size_t C = counter_width(total);
  const std::size_t w = cut.input_count();
  const CompressedTopoff& comp = plan.comp;
  const unsigned K = misr_bits(plan);
  const WrapperNets nets(wrapper, cut, D, C, K);

  WrapperVerification v;
  if (L + T != total) {
    // The plan's phases do not add up to its test time: nothing to prove.
    v.seeds_identical = false;
    v.signature_identical = false;
    return v;
  }
  v.lfsr_phase_identical = true;
  v.topoff_identical = true;

  // Row j's seed events are comp.seeds[row_seeds[j], row_seeds[j + 1])
  // (sorted by row, then offset; a decoded plan loads nothing).
  const std::span<const SeedEvent> seeds =
      comp.enabled ? std::span<const SeedEvent>(comp.seeds)
                   : std::span<const SeedEvent>();
  std::vector<std::size_t> row_seeds(T + 1);
  for (std::size_t j = 0, e = 0; j <= T; row_seeds[j++] = e)
    while (e < seeds.size() && seeds[e].row < j) ++e;
  if (comp.enabled) v.seeds_identical = comp.fallback.size() == T;
  bool misr_follows = true;
  bool sign_ok = false;

  const SimKernel wk(wrapper);
  KernelSim wsim(wk);
  PatternBlock frame;
  frame.width = wrapper.input_count();
  frame.input_words.assign(frame.width, 0);
  const SimKernel ck(cut);
  KernelSim csim(ck);
  const auto outs = ck.outputs();

  Lfsr lfsr(D, plan.lfsr_taps, plan.lfsr_seed);
  std::uint64_t reg = lfsr.state();  // LFSR at the next ROM-phase cycle
  std::uint64_t misr = 0;
  LaneStates lfsr_at(D), cnt_at(C), misr_at(K);
  std::array<std::uint64_t, 64> at{}, after{};
  BitVec seeded_row(w);
  std::vector<PatternBlock> blocks;  // the predicted applied stream
  blocks.reserve((total + 63) / 64);
  // Drive a register's predicted states into the frame; lanes whose
  // next-state outputs miss the prediction.
  const auto drive = [&](const std::vector<GateId>& in, const LaneStates& s) {
    for (std::size_t i = 0; i < in.size(); ++i)
      frame.input_words[wrapper.input_index(in[i])] = s.now[i];
  };
  const auto missed = [&](const std::vector<GateId>& out,
                          const std::vector<std::uint64_t>& want) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < out.size(); ++i)
      bad |= wsim.value(out[i]) ^ want[i];
    return bad;
  };

  for (std::size_t base = 0; base < total; base += 64) {
    if (dl && dl->should_stop()) {
      // A stop between frames proves a prefix only: no verdict.
      v = WrapperVerification{};
      v.seeds_identical = false;
      v.signature_identical = false;
      v.cycles = base;
      v.status = dl->stop_status("verify_wrapper");
      return v;
    }
    const std::size_t n = std::min<std::size_t>(64, total - base);
    const std::size_t nl = L > base ? std::min(n, L - base) : 0;  // LFSR lanes
    const std::uint64_t lanes = low_lanes(n), lfsr_lanes = low_lanes(nl);
    lfsr_at.clear();
    cnt_at.clear();
    misr_at.clear();

    // --- prediction: LFSR lanes from the free-running stream --------------
    PatternBlock p = lfsr.next_block(w, nl);
    if (nl > 0) {
      // Lanes t < nl of stream bit t*w + j: pattern t + j/w's input j%w
      // while that pattern is in the block, else one of the next D stream
      // bits, which the register now holds output-first.
      const std::uint64_t ahead = lfsr.state();
      const auto stream_word = [&](std::size_t j) {
        const std::size_t q = j / w, r = j % w;
        std::uint64_t word =
            q < nl ? (p.input_words[r] >> q) & low_lanes(nl - q) : 0;
        for (std::size_t t = nl > q ? nl - q : 0; t < nl; ++t)
          word |= ((ahead >> (D - 1 - ((t + q - nl) * w + r))) & 1) << t;
        return word;
      };
      for (unsigned i = 0; i < D; ++i) {
        lfsr_at.now[i] = stream_word(D - 1 - i);
        lfsr_at.next[i] = stream_word(D - 1 - i + w);
      }
      reg = ahead;
    }
    p.count = n;

    // --- prediction: ROM lanes, the register carried row by row -----------
    if (nl < n) {
      at.fill(0);
      after.fill(0);
      for (std::size_t t = nl; t < n; ++t) {
        const std::size_t j = base + t - L;
        const auto ev =
            seeds.subspan(row_seeds[j], row_seeds[j + 1] - row_seeds[j]);
        const bool seeded =
            comp.enabled && j < comp.fallback.size() && !comp.fallback[j];
        at[t] = reg;
        reg = step_row(ev, D, plan.lfsr_taps, w, reg,
                       seeded ? &seeded_row : nullptr);
        after[t] = reg;
        if (seeded && seeded_row != plan.topoff[j]) v.seeds_identical = false;
        for (std::size_t i = 0; i < w; ++i)
          p.input_words[i] |= std::uint64_t(plan.topoff[j].get(i)) << t;
      }
      lfsr_at.add(at, after);
    }

    // --- prediction: counter and MISR --------------------------------------
    for (std::size_t t = 0; t < 64; ++t) {
      at[t] = (base + t) & low_lanes(C);
      after[t] = (base + t + 1) & low_lanes(C);
    }
    cnt_at.add(at, after);
    if (K > 0) {
      csim.simulate(p);
      std::array<std::uint64_t, 64> inject{};
      for (std::size_t o = 0; o < outs.size(); ++o)
        inject[comp.misr.cls(o)] ^= csim.value_at(outs[o]) & lanes;
      transpose64(inject);
      at.fill(0);
      after.fill(0);
      for (std::size_t t = 0; t < n; ++t) {
        at[t] = misr;
        misr = misr_step(comp.misr, misr, inject[t]);
        after[t] = misr;
      }
      misr_at.add(at, after);
    }

    // --- one wrapper evaluation: lane t maps state t to state t+1 ---------
    frame.count = n;
    drive(nets.lfsr_in, lfsr_at);
    drive(nets.cnt_in, cnt_at);
    drive(nets.misr_in, misr_at);
    wsim.simulate(frame);
    const std::uint64_t bad = (missed(nets.lfsr_out, lfsr_at.next) |
                               missed(nets.cnt_out, cnt_at.next) |
                               missed(nets.cut_in, p.input_words)) &
                              lanes;
    if (bad & lfsr_lanes) v.lfsr_phase_identical = false;
    if (bad & ~lfsr_lanes) v.topoff_identical = false;
    if (missed(nets.misr_out, misr_at.next) & lanes) misr_follows = false;
    if (K > 0 && base + n == total)
      sign_ok = (wsim.value(nets.sign_ok) >> (n - 1)) & 1;
    blocks.push_back(std::move(p));
  }
  v.cycles = total;

  // Fault-simulating the CUT over the applied stream must land exactly on
  // the scheduled point's coverage: detection is pattern-set determined, so
  // the numerators (LFSR-phase detections + tail detections by the stored
  // set) agree integer for integer, and the doubles divide out identically.
  FaultSimulator fsim(ck);
  const FaultSimResult fr = fsim.run(blocks, fopt, dl);
  if (!fr.status.ok()) {
    v.seeds_identical = false;
    v.signature_identical = false;
    v.status = fr.status;
    return v;
  }
  v.achieved_coverage = fr.final_coverage();
  v.achieved_coverage_weighted = fr.final_coverage_weighted();
  v.coverage_identical = v.achieved_coverage == point.final_coverage &&
                         v.achieved_coverage_weighted ==
                             point.final_coverage_weighted;

  if (K > 0) {
    // Signature: the gate-level MISR followed the prediction, so it lands
    // where the prediction does — which must be the golden state — and the
    // synthesized comparator must say so on the final cycle.
    v.misr_signature = misr;
    v.signature_identical = misr_follows && misr == comp.golden && sign_ok;
    // Empirical aliasing audit over the applied stream: does any detected
    // fault's signature collide with the golden one?
    v.aliasing = misr_aliasing_check(fsim, ck, blocks, total, comp.misr,
                                     fr.first_detected);
  }
  return v;
}

}  // namespace bist
