// Independent pointer-chasing streams — the pure latency-tolerance
// microbenchmark (the Emu Chick suite's pointer-chase kernel).
//
// The n ring nodes form one global cycle (a Sattolo permutation) spread
// block-wise over the PEs; each node's word holds the id of the next.
// Every thread chases `hops` links from its own start node: a serial
// dependency chain where nothing can be prefetched and every remote hop
// is one split-phase read with no other work to hide it — per-thread
// progress is pure latency, so tolerance can only come from the OTHER
// h-1 threads on the PE. Measured overlap efficiency is the paper's
// multithreading claim in its rawest form.
#pragma once

#include <cstdint>
#include <vector>

#include "core/machine.hpp"
#include "workloads/workload.hpp"

namespace emx::workloads {

struct PtrchaseParams {
  std::uint64_t n = 1024;     ///< ring nodes (P | n)
  std::uint32_t threads = 4;  ///< h, streams per PE
  std::uint64_t seed = 0x5EED0007;
  std::uint32_t hops = 256;   ///< links chased per stream

  // Instruction budgets (cycles).
  Cycle hop_cycles = 2;  ///< next-pointer address computation
};

class PtrchaseApp final : public Workload {
 public:
  PtrchaseApp(Machine& machine, PtrchaseParams params);

  void setup();

  const PtrchaseParams& params() const { return params_; }

  /// The start node of stream (pe, t).
  Word start_node(ProcId pe, std::uint32_t t) const;

  /// Gathers every stream's final node (valid after run()).
  std::vector<Word> gather_finals() const;

  /// Host reference: the same chases over the ring mirror.
  std::vector<Word> host_reference() const;

  bool verify() const override;
  void contribute(MachineReport& report) const override;

  LocalAddr ring_addr(Word node_local) const;
  LocalAddr result_addr(std::uint32_t t) const;

 private:
  friend rt::ThreadBody ptrchase_worker(PtrchaseApp* app, rt::ThreadApi api,
                                        Word thread_index);

  std::uint64_t per_proc_nodes() const;

  Machine& machine_;
  PtrchaseParams params_;
  std::vector<Word> ring_;  ///< host mirror: node -> next node
  /// Metric counters, one cell per PE: a cell is only ever touched by
  /// threads running on that PE, and contribute() sums the cells.
  struct PeCounters {
    std::uint64_t local_hops = 0;
    std::uint64_t remote_hops = 0;
  };
  std::vector<PeCounters> counters_;
  std::uint32_t worker_entry_ = 0;
  bool setup_done_ = false;
};

rt::ThreadBody ptrchase_worker(PtrchaseApp* app, rt::ThreadApi api,
                               Word thread_index);

class Registry;
void register_ptrchase_workload(Registry& registry);

}  // namespace emx::workloads
