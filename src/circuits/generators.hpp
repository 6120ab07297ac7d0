#pragma once
// Parameterized structural circuit generators.  These are the building
// blocks from which the ISCAS85 surrogate family is assembled (see
// iscas85_family.hpp): array multipliers, ECC trees, comparator-style
// random-pattern-resistant blocks, ALU slices and random logic clouds.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace bist {

/// n x n array multiplier (AND partial products + FA/HA reduction built from
/// 2-input gates).  PIs a[0..n-1], b[0..n-1]; POs p[0..2n-1].  c6288-like.
Netlist make_array_multiplier(unsigned bits);

/// 32-bit single-error-correction style circuit: k data bits in, syndrome
/// XOR trees + correction ANDs out.  Shaped after C499/C1355.
Netlist make_ecc_circuit(unsigned data_bits, unsigned syndrome_bits);

/// --- sub-block builders (append into an existing netlist) ---------------
/// Each returns the output gate ids of the block.

/// Full adder on three existing nets; appends 5 gates.
struct FullAdderOut { GateId sum, carry; };
FullAdderOut append_full_adder(Netlist& n, GateId a, GateId b, GateId cin);

/// Balanced XOR tree over `leaves`; returns its root (the leaves vector must
/// not be empty).
GateId append_xor_tree(Netlist& n, std::vector<GateId> leaves);

/// Wide AND-of-literals "code detector": fires only when the selected nets
/// match `code` exactly.  Detection probability under random patterns is
/// 2^-k, which makes its output faults random-pattern resistant.  Appends
/// inverters + a balanced AND tree; returns the detector output.
GateId append_code_detector(Netlist& n, std::span<const GateId> nets,
                            std::uint64_t code);

/// Random logic cloud appended on top of `sources`.  Adds `gate_budget`
/// gates with an ISCAS-like type mix, locality-biased fanin selection and
/// bounded fanin arity.  Returns ids of the appended gates.
struct CloudOptions {
  std::size_t gate_budget = 100;
  unsigned max_fanin = 4;
  double locality = 0.8;       ///< probability a fanin is drawn from the recent window
  std::size_t window = 64;     ///< size of the recent window
};
std::vector<GateId> append_random_cloud(Netlist& n, Rng& rng,
                                        std::span<const GateId> sources,
                                        const CloudOptions& opt);

/// ALU-style slice array (c880/c3540-flavoured): `slices` 1-bit slices, each
/// combining operand bits with a shared 3-bit function select. Appends gates
/// and returns slice outputs.
std::vector<GateId> append_alu_slices(Netlist& n, std::span<const GateId> a,
                                      std::span<const GateId> b,
                                      std::span<const GateId> fsel);

}  // namespace bist
