#pragma once
// Size/shape statistics for a netlist, used by the reports and by the
// surrogate-circuit calibration tests (a c3540s must look like C3540).

#include <array>
#include <cstddef>

#include "netlist/netlist.hpp"

namespace bist {

struct NetlistStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0;          ///< logic gates (excludes primary inputs)
  std::size_t nets = 0;           ///< total signals
  unsigned depth = 0;             ///< max logic level
  double avg_fanin = 0.0;
  std::size_t max_fanin = 0;
  std::size_t max_fanout = 0;
  std::array<std::size_t, 11> by_type{};  ///< indexed by GateType
};

NetlistStats compute_stats(const Netlist& n);

}  // namespace bist
