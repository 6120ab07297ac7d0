#include "bist/area.hpp"

#include <bit>
#include <map>

namespace bist {

double gate_area(const AreaModel& m, GateType t, std::size_t fanin_count) {
  const double n2 = fanin_count > 1 ? double(fanin_count - 1) : 1.0;
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1: return 0.0;
    case GateType::Buf: return m.buf1;
    case GateType::Not: return m.not1;
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: return n2 * m.and2;
    case GateType::Xor:
    case GateType::Xnor: return n2 * m.xor2;
  }
  return 0.0;
}

double netlist_area(const AreaModel& m, const Netlist& n) {
  double a = 0.0;
  for (GateId g = 0; g < n.gate_count(); ++g)
    a += gate_area(m, n.gate(g).type, n.gate(g).fanins.size());
  return a;
}

std::size_t counter_width(std::size_t total_cycles) {
  if (total_cycles <= 2) return 1;
  return static_cast<std::size_t>(std::bit_width(total_cycles - 1));
}

BistArea estimate_bist_area(const AreaModel& m, unsigned lfsr_degree,
                            std::uint64_t lfsr_taps, std::size_t cut_inputs,
                            std::span<const BitVec> topoff,
                            std::size_t lfsr_patterns,
                            const CompressedTopoff& comp) {
  // The legacy architecture is the compressed one with every row a decoded
  // fallback row, no seeds and no MISR — exactly how synthesize_bist_wrapper
  // treats a disabled CompressedTopoff.
  const bool compressed = comp.enabled;
  BistArea a;
  const std::size_t w = cut_inputs;
  const std::size_t t = topoff.size();
  const std::size_t total = lfsr_patterns + t;
  const std::size_t c = counter_width(total);
  const unsigned D = lfsr_degree;
  const unsigned K = compressed ? comp.misr.degree : 0;
  const std::size_t fb_n = compressed ? comp.fallback_rows() : t;

  a.rom_bits = fb_n * w;  // only the fallback rows stay fully decoded
  a.seed_rom_bits = compressed ? comp.seed_rom_bits() : 0;
  a.misr_bits = K;
  a.state_bits = D + c + K;

  // LFSR: degree FFs, one feedback XOR network per pattern bit (the
  // test-per-clock unrolling shifts `w` times per applied pattern), and the
  // degree next-state output buffers of the one-frame wrapper.
  const unsigned taps = static_cast<unsigned>(std::popcount(lfsr_taps));
  const double fb = taps >= 2 ? double(taps - 1) * m.xor2 : m.buf1;
  a.lfsr = double(D) * m.flipflop + double(w) * fb + double(D) * m.buf1;

  // Controller: counter FFs + ripple increment (1 NOT, c-1 XOR2, c-2 AND2
  // carries) + c next-state buffers + one c-literal decode AND per top-off
  // row (seeded rows feed the load selects and seed planes, fallback rows
  // the ROM plane) with shared inverters for the bits that appear
  // complemented in at least one row address, plus the per-offset reseed
  // load selects.
  a.controller = double(c) * m.flipflop + m.not1 +
                 double(c > 0 ? c - 1 : 0) * m.xor2 +
                 double(c > 2 ? c - 2 : 0) * m.and2 + double(c) * m.buf1;
  if (t > 0) {
    const double decode = c >= 2 ? double(c - 1) * m.and2 : m.buf1;
    std::uint64_t inv_mask = 0;
    const std::uint64_t cmask =
        c >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << c) - 1);
    for (std::size_t j = 0; j < t; ++j)
      inv_mask |= ~std::uint64_t(lfsr_patterns + j) & cmask;
    a.controller += double(t) * decode +
                    double(std::popcount(inv_mask)) * m.not1;
  }

  // Reseeding datapath: per distinct load offset, a select (OR of the rows
  // reseeding there when >= 2, plus its inverter) and a D-bit load mux into
  // the unrolled chain; the seed columns (OR over the rows whose seed bit is
  // set) are the seed-ROM plane.
  std::map<std::uint32_t, std::vector<const SeedEvent*>> by_offset;
  if (compressed)
    for (const SeedEvent& e : comp.seeds) by_offset[e.offset].push_back(&e);
  for (const auto& [off, evs] : by_offset) {
    (void)off;
    if (evs.size() >= 2)
      a.controller += double(evs.size() - 1) * m.and2;  // load select OR
    a.controller += m.not1;                             // select inverter
    for (unsigned bb = 0; bb < D; ++bb) {
      std::size_t set = 0;
      for (const SeedEvent* e : evs) set += (e->seed >> bb) & 1;
      if (set == 0) {
        a.mux += m.and2;  // keep leg only: bit is forced 0 during a load
      } else {
        a.mux += m.and2 + m.and2;  // keep leg + merge OR
        if (set >= 2) a.seed_rom += double(set - 1) * m.and2;
      }
    }
  }

  // Decoded fallback rows: per CUT input an OR over the fallback rows whose
  // stored bit is set (the ROM plane, priced from per-column popcounts), and
  // the phase mux — an AND leg gating the LFSR bit, merged with the ROM
  // column by an OR when the column has any set bit — selected by the OR of
  // the fallback-row decodes plus its inverter.  With no fallback rows the
  // CUT inputs ride the chain taps directly (one buffer each).
  std::vector<std::size_t> col_rows(w, 0);
  for (std::size_t j = 0; j < t; ++j)
    if (!compressed || comp.fallback[j])
      for (std::size_t i = 0; i < w; ++i) col_rows[i] += topoff[j].get(i);
  for (std::size_t i = 0; i < w; ++i)
    if (col_rows[i] >= 2) a.rom += double(col_rows[i] - 1) * m.and2;
  if (fb_n > 0) {
    a.mux += m.not1;
    a.mux += fb_n >= 2 ? double(fb_n - 1) * m.and2 : m.buf1;  // bist_det
    for (std::size_t i = 0; i < w; ++i)
      a.mux += col_rows[i] ? m.and2 + m.and2 : m.and2;
  } else {
    a.mux += double(w) * m.buf1;
  }

  // MISR: state FFs, one feedback parity per cycle, one injection XOR per
  // stage class (outputs fold per comp.misr.cls — the audited assignment),
  // and the golden-signature comparator (inverters on the zero bits, one
  // K-literal AND).
  if (K > 0) {
    a.misr = double(K) * m.flipflop;
    const unsigned kt = static_cast<unsigned>(std::popcount(comp.misr.taps));
    a.misr += kt >= 2 ? double(kt - 1) * m.xor2 : m.buf1;
    std::vector<std::size_t> cls_n(K, 0);
    for (std::size_t o = 0; o < comp.cut_outputs; ++o)
      ++cls_n[comp.misr.cls(o)];
    for (unsigned cc = 0; cc < K; ++cc)
      a.misr += cls_n[cc] > 0 ? double(cls_n[cc]) * m.xor2 : m.buf1;
    const std::uint64_t kmask =
        K >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << K) - 1);
    a.misr += double(std::popcount(~comp.golden & kmask)) * m.not1;
    a.misr += K >= 2 ? double(K - 1) * m.and2 : m.buf1;
  }
  return a;
}

}  // namespace bist
