// Destination-tag routing over the circular Omega network.
//
// The EM-X connects P switch boxes (one per processor) in a circular Omega
// arrangement: the multistage Omega network folded onto a single column of
// switches whose outputs feed back via the perfect shuffle. That folding
// is exactly the binary de Bruijn graph: switch i has network out-edges to
// (2i) mod P and (2i + 1) mod P. A packet from s to d takes log2(P) hops;
// at hop j the low bit shifted in is bit (log2 P - 1 - j) of d
// (destination-tag routing). Virtual cut-through gives k+1 cycles for a
// k-hop route when uncontended (paper §2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace emx::net {

/// Routing helper for a power-of-two processor count. Uses shortest-path
/// destination-tag routing: if the low `o` bits of src already equal the
/// high `o` bits of dst (the shift-register overlap), only bits - o
/// shuffle hops are needed. This realises the paper's "k hops" with
/// distance-dependent k and avoids degenerate self-loop hops.
class ShuffleRouting {
 public:
  explicit ShuffleRouting(std::uint32_t proc_count);

  std::uint32_t proc_count() const { return proc_count_; }
  unsigned bits() const { return bits_; }

  /// Longest o such that the low o bits of src equal the high o bits of
  /// dst (o == bits for src == dst).
  unsigned overlap(ProcId src, ProcId dst) const;

  /// Number of switch-to-switch hops from src to dst: bits - overlap
  /// (zero for self-sends, which never enter the network fabric).
  unsigned hop_count(ProcId src, ProcId dst) const;

  /// hop_count() for every pair, row-major by src (P*P bytes).
  std::vector<std::uint8_t> hop_table() const;

  /// The switch a packet sits at after `hop` hops of its route (hop 0 is
  /// the source's own switch box).
  ProcId node_at_hop(ProcId src, ProcId dst, unsigned hop) const;

  /// Which network output port (0 or 1) the packet takes when leaving the
  /// switch it reaches after `hop` hops: the next destination bit that
  /// shifts in.
  unsigned output_port(ProcId src, ProcId dst, unsigned hop) const;

  /// Full route src -> ... -> dst, including both endpoints.
  std::vector<ProcId> route(ProcId src, ProcId dst) const;

 private:
  std::uint32_t proc_count_;
  std::uint32_t mask_;
  unsigned bits_;
};

}  // namespace emx::net
