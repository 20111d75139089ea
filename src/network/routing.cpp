#include "network/routing.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace emx::net {

ShuffleRouting::ShuffleRouting(std::uint32_t proc_count)
    : proc_count_(proc_count),
      mask_(proc_count - 1),
      bits_(ilog2(proc_count)) {
  EMX_CHECK(is_power_of_two(proc_count),
            "detailed Omega network requires a power-of-two processor count");
}

unsigned ShuffleRouting::overlap(ProcId src, ProcId dst) const {
  EMX_DCHECK(src < proc_count_ && dst < proc_count_, "proc id out of range");
  for (unsigned o = bits_; o > 0; --o) {
    const std::uint32_t low = src & ((std::uint32_t{1} << o) - 1);
    const std::uint32_t high = dst >> (bits_ - o);
    if (low == high) return o;
  }
  return 0;
}

unsigned ShuffleRouting::hop_count(ProcId src, ProcId dst) const {
  return bits_ - overlap(src, dst);
}

std::vector<std::uint8_t> ShuffleRouting::hop_table() const {
  // Filled by overlap ranges, not P*P overlap() calls: the dsts whose
  // high o bits equal src's low o bits are one aligned block of P >> o
  // ids. Writing o in ascending order leaves each dst with its longest
  // overlap, so the entry is bits - overlap(src, dst).
  std::vector<std::uint8_t> table(std::size_t{proc_count_} * proc_count_);
  for (ProcId src = 0; src < proc_count_; ++src) {
    std::uint8_t* row = table.data() + std::size_t{src} * proc_count_;
    for (unsigned o = 0; o <= bits_; ++o) {
      const std::uint32_t low = src & ((std::uint32_t{1} << o) - 1);
      std::fill_n(row + (low << (bits_ - o)), proc_count_ >> o,
                  static_cast<std::uint8_t>(bits_ - o));
    }
  }
  return table;
}

ProcId ShuffleRouting::node_at_hop(ProcId src, ProcId dst, unsigned hop) const {
  const unsigned o = overlap(src, dst);
  const unsigned hops = bits_ - o;
  EMX_DCHECK(hop <= hops, "hop beyond route length");
  // Shift-register semantics: after h hops the node id is the low
  // (bits-h) bits of src followed by the next h destination bits.
  const std::uint32_t kept = (src << hop) & mask_;
  const std::uint32_t injected = dst >> (bits_ - o - hop);
  return (kept | injected) & mask_;
}

unsigned ShuffleRouting::output_port(ProcId src, ProcId dst, unsigned hop) const {
  const unsigned o = overlap(src, dst);
  EMX_DCHECK(hop < bits_ - o, "output port past final hop");
  return (dst >> (bits_ - o - 1 - hop)) & 1u;
}

std::vector<ProcId> ShuffleRouting::route(ProcId src, ProcId dst) const {
  std::vector<ProcId> path;
  const unsigned hops = hop_count(src, dst);
  path.reserve(hops + 1);
  for (unsigned h = 0; h <= hops; ++h) path.push_back(node_at_hop(src, dst, h));
  return path;
}

}  // namespace emx::net
