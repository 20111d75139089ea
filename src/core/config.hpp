// MachineConfig: every timing and structural parameter of the simulated
// EM-X, with defaults taken from the paper (SPAA'97 §2.2–§2.3) and the
// EMC-Y/EM-X architecture papers it cites.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/check_config.hpp"
#include "common/types.hpp"
#include "fault/fault_config.hpp"

namespace emx {

/// Which network model transports packets.
enum class NetworkModel {
  kDetailed,  ///< per-hop switch-box simulation (exact contention)
  kFast,      ///< O(1)-per-packet endpoint-contention model
};

/// How remote read requests are serviced at the target processor.
enum class ReadServiceMode {
  kBypassDma,  ///< EM-X: IBU->MCU->OBU by-pass, zero EXU cycles (paper §2.2)
  kExuThread,  ///< EM-4: request runs as a 1-instruction thread on the EXU
};

/// Iteration-barrier implementation (ablation: central vs tree).
enum class BarrierTopology { kCentral, kTree };

struct MachineConfig {
  // --- structure ---
  std::uint32_t proc_count = 16;        ///< P; power of two for kDetailed
  std::size_t memory_words = 1u << 20;  ///< 4 MB static RAM per PE
  NetworkModel network = NetworkModel::kFast;
  ReadServiceMode read_service = ReadServiceMode::kBypassDma;
  BarrierTopology barrier = BarrierTopology::kCentral;
  std::size_t ibu_fifo_depth = 8;  ///< on-chip packet FIFO depth (per level)
  std::size_t obu_fifo_depth = 8;

  // --- clocking ---
  double clock_hz = kDefaultClockHz;  ///< 20 MHz EMC-Y

  // --- instruction & unit timings (cycles) ---
  Cycle packet_gen_cycles = 1;   ///< any send instruction (paper: one clock)
  Cycle local_mem_cycles = 1;    ///< local load/store
  Cycle obu_cycles = 1;          ///< OBU handoff from EXU/IBU to network
  Cycle switch_save_cycles = 4;  ///< save live registers on suspension
  Cycle mu_dispatch_cycles = 3;  ///< MU direct-matching dispatch (5 actions)
  Cycle match_store_cycles = 2;  ///< store first token to matching memory
  /// By-pass DMA one-shot service latency: request decode, memory
  /// arbitration against the EXU, read, reply formation. Together with
  /// the fabric this puts a single remote read at ~30 clocks (1.5 us),
  /// the paper's quoted 1-2 us / 20-40 clocks.
  Cycle dma_service_cycles = 16;
  /// By-pass DMA engine occupancy per serviced request — its sustained
  /// throughput, which bounds the reply rate under a read burst.
  /// Calibrated so that the 12-clock-run-length sorting loop stays
  /// reply-bound (the paper's ~35% sorting overlap ceiling) while the
  /// hundreds-of-clocks FFT loop never is (>95% overlap). See
  /// EXPERIMENTS.md, calibration notes.
  Cycle dma_interval_cycles = 32;
  /// Extra words of a block read stream out at this interval (the wire
  /// rate), amortising the per-request occupancy.
  Cycle dma_block_word_cycles = 2;
  Cycle exu_read_service_cycles = 24;  ///< EM-4 mode: EXU cycles per read
  Cycle self_loop_cycles = 2;    ///< OBU->IBU loopback for self packets
  Cycle port_interval_cycles = 2;///< network port: 1 packet per 2 cycles

  // --- runtime / synchronisation ---
  Cycle barrier_poll_interval = 24;  ///< re-check period while flag unset
  Cycle barrier_check_cycles = 2;    ///< flag test instructions per poll
  bool priority_replies = false;     ///< read replies use the high FIFO

  // --- fault injection & reliability (off unless any rate/window set) ---
  /// When `fault.enabled()`, the chosen network is wrapped in a
  /// fault::FaultyNetwork decorator and every PE runs the retransmit
  /// protocol; otherwise the subsystem is not even constructed and the
  /// simulated machine is cycle-identical to a build without it.
  fault::FaultConfig fault;

  // --- correctness checkers (off unless any checker armed) ---
  /// When `check.enabled()`, the Machine builds an analysis::CheckContext
  /// and every engine/memory/network hook reports into it; otherwise no
  /// shadow state exists at all. The checkers are pure observers, so even
  /// an armed run reports cycle counts identical to an unarmed one.
  analysis::CheckConfig check;

  // --- safety rails ---
  std::uint64_t max_events = 0;  ///< 0 = unlimited
  /// Progress watchdog window (cycles). When nonzero, a run that makes no
  /// forward progress — no thread executes, no packet is serviced or
  /// delivered — for this many cycles while events are still pending is
  /// stopped and diagnosed instead of spinning until the event budget.
  /// 0 = disarmed.
  Cycle watchdog_cycles = 0;

  /// "" when the machine can be built; otherwise the first broken
  /// invariant (power-of-two P for the detailed network, nonzero sizes,
  /// outage PEs inside the machine, then fault.problem()), named as its
  /// emx_run flag where it has one.
  std::string problem() const;
  /// Panics with problem() when it is not "".
  void validate() const;

  std::string summary() const;

  /// The machine the paper evaluates on: P processors (16 or 64 in the
  /// figures), detailed per-hop Omega network.
  static MachineConfig paper_machine(std::uint32_t procs);

  /// The physical prototype: 80 EMC-Y processors ("built and operational
  /// at the Electrotechnical Laboratory since December 1995"). 80 is not
  /// a power of two, so the fast network model carries the fabric.
  static MachineConfig emx_prototype();
};

}  // namespace emx
