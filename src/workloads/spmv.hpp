// Sparse matrix-vector multiply (CSR) with remote row gathers — the
// irregular-memory workload from the Emu Chick suite (PAPERS.md).
//
// y = A * x with A a uniform-nnz-per-row CSR matrix whose column
// indices are drawn uniformly at random: rows and both vectors are
// block-distributed, so each row's gather touches a data-dependent set
// of x elements, most of them remote. Remote gathers go out as
// split-phase reads, batched pairwise through the Matching Unit's
// two-operand direct matching (one suspension, two reply packets) —
// the EM-X idiom the paper's Figure 5 measures.
//
// Verification is bitwise: matrix values and x entries are small
// integers stored as f32, so every product (≤ 16·256) and every row
// sum (≤ nnz·4096 < 2^24) is exactly representable and the sum order
// cannot matter. The simulated result must equal the host reference
// bit for bit, under any thread count and any fault plan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/machine.hpp"
#include "workloads/workload.hpp"

namespace emx::workloads {

struct SpmvParams {
  std::uint64_t n = 2048;     ///< rows == x length (P | n)
  std::uint32_t threads = 4;  ///< h, threads per PE
  std::uint64_t seed = 0x5EED0006;
  std::uint32_t row_nnz = 8;  ///< nonzeros per row (uniform CSR)

  // Instruction budgets (cycles).
  Cycle row_addr_cycles = 2;   ///< row pointer arithmetic
  Cycle gather_cycles = 2;     ///< column load + owner computation
  Cycle pair_addr_cycles = 4;  ///< two-operand gather address setup
  Cycle mac_cycles = 2;        ///< one multiply-accumulate
};

class SpmvApp final : public Workload {
 public:
  SpmvApp(Machine& machine, SpmvParams params);

  void setup();

  const SpmvParams& params() const { return params_; }

  /// Gathers y across PEs (valid after run()).
  std::vector<float> gather_y() const;

  /// Host reference y, computed exactly over the same matrix and x.
  std::vector<float> host_reference() const;

  bool verify() const override;
  void contribute(MachineReport& report) const override;

  LocalAddr col_addr(Word row_local, std::uint32_t j) const;
  LocalAddr val_addr(Word row_local, std::uint32_t j) const;
  LocalAddr x_addr(Word k_local) const;
  LocalAddr y_addr(Word row_local) const;

 private:
  friend rt::ThreadBody spmv_worker(SpmvApp* app, rt::ThreadApi api,
                                    Word thread_index);

  std::uint64_t per_proc_rows() const;

  Machine& machine_;
  SpmvParams params_;
  std::vector<Word> cols_;    ///< host mirror: n * row_nnz column indices
  std::vector<float> vals_;   ///< host mirror: n * row_nnz values
  std::vector<float> x_;      ///< host mirror: the input vector
  /// Metric counters, one cell per PE: a cell is only ever touched by
  /// threads running on that PE, and contribute() sums the cells.
  struct PeCounters {
    std::uint64_t local_gathers = 0;
    std::uint64_t remote_gathers = 0;
    std::uint64_t pair_reads = 0;
  };
  std::vector<PeCounters> counters_;
  std::uint32_t worker_entry_ = 0;
  bool setup_done_ = false;
};

rt::ThreadBody spmv_worker(SpmvApp* app, rt::ThreadApi api, Word thread_index);

class Registry;
void register_spmv_workload(Registry& registry);

}  // namespace emx::workloads
