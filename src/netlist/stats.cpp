#include "netlist/stats.hpp"

#include <algorithm>

namespace bist {

NetlistStats compute_stats(const Netlist& n) {
  NetlistStats s;
  s.inputs = n.input_count();
  s.outputs = n.output_count();
  s.nets = n.gate_count();
  s.depth = n.max_level();
  std::size_t fanin_sum = 0;
  for (GateId g = 0; g < n.gate_count(); ++g) {
    const Gate& gg = n.gate(g);
    s.by_type[static_cast<std::size_t>(gg.type)]++;
    if (gg.type == GateType::Input) continue;
    ++s.gates;
    fanin_sum += gg.fanins.size();
    s.max_fanin = std::max(s.max_fanin, gg.fanins.size());
    s.max_fanout = std::max(s.max_fanout, n.fanouts(g).size());
  }
  s.avg_fanin = s.gates ? static_cast<double>(fanin_sum) / s.gates : 0.0;
  return s;
}

}  // namespace bist
