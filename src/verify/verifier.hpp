// emx::verify — static CFG/dataflow verification of EMC-Y programs.
//
// The dynamic checkers (src/analysis/) catch protocol errors on the
// paths an input happens to exercise, after cycles are spent; this layer
// catches them on *all* paths, in milliseconds, before a single cycle
// runs. verify_program() builds the basic-block CFG and runs:
//
//   use-before-def   must-dataflow over the 32 registers, suspend-aware:
//                    a kRead destination is defined only on the resume
//                    edge; reading a register no path has defined is an
//                    error, and kRead into the hardwired-zero r0 loses
//                    the reply entirely.
//   frame balance    all-paths kFMark/kFDrop depth matching — the static
//                    counterpart of the memcheck leak scan: a drop with
//                    no mark, paths reaching a join at different depths,
//                    an iteration that changes the depth, or a halt with
//                    regions still marked.
//   barrier counts   every path into a join must have executed the same
//                    number of kBarriers, and every trip around a loop
//                    the same number — the static precursor of the
//                    wait-for-graph deadlock the dynamic checker can
//                    only diagnose post-hoc.
//   structural lints unreachable blocks, falling off the end of the
//                    program, branch targets outside the code, kReadB
//                    with a non-positive length, and loops containing no
//                    suspend point (kYield/kRead/kBarrier/...) — a spin
//                    that can starve siblings on the PE.
//
// Findings carry the instruction index and, for assembled programs, the
// source line. Severity: definite protocol violations are errors;
// unreachable code and suspend-free loops are warnings (a bounded
// compute loop is legal, just suspicious in a fine-grain-threading ISA).
//
// Two surfaces: this Report API and the standalone tools/emx_verify
// (findings exit with code 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hpp"

namespace emx::verify {

enum class FindingKind : std::uint8_t {
  kUseBeforeDef,        ///< register read with no definition on some path
  kReadIntoZero,        ///< kRead destination r0: the reply is discarded
  kFrameUnderflow,      ///< kFDrop with no kFMark outstanding
  kFramePathMismatch,   ///< join/loop reached at differing frame depths
  kFrameLeak,           ///< kHalt with frame regions still marked
  kBarrierPathMismatch, ///< join/loop reached at differing barrier counts
  kUnreachableCode,     ///< block no path from the entry reaches
  kFallOffEnd,          ///< execution can run past the last instruction
  kBranchOutOfRange,    ///< branch target outside the program
  kBadBlockReadLength,  ///< kReadB with a non-positive word count
  kSpinWithoutSuspend,  ///< loop containing no suspend point
};

inline constexpr std::size_t kFindingKindCount = 11;

const char* to_string(FindingKind kind);

enum class Severity : std::uint8_t { kWarning, kError };

struct Finding {
  FindingKind kind = FindingKind::kUseBeforeDef;
  Severity severity = Severity::kError;
  std::uint32_t instr = 0;  ///< anchor instruction index
  std::uint32_t line = 0;   ///< source line, 0 when the program has none
  std::string message;

  /// "error: use-before-def at #5 (line 12): r4 is read but ..."
  std::string describe() const;
};

struct Report {
  std::string name;  ///< what was verified ("file.emx", "app sort #0")
  std::vector<Finding> findings;

  bool clean() const { return findings.empty(); }
  std::size_t errors() const;
  std::size_t warnings() const;
  std::size_t count(FindingKind kind) const;
  /// Every finding, one per line, each prefixed with `name` when set.
  std::string summary_text() const;
};

/// Runs every static check over `program`.
Report verify_program(const isa::Program& program, std::string name = "");

}  // namespace emx::verify
