#include "verify/verifier.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "verify/cfg.hpp"

namespace emx::verify {

namespace {

using isa::Instruction;
using isa::Opcode;

/// Bitmask of the registers instruction `in` reads.
std::uint32_t source_mask(const Instruction& in) {
  const auto ra = std::uint32_t{1} << in.ra;
  const auto rb = std::uint32_t{1} << in.rb;
  switch (in.op) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
    case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor:
    case Opcode::kShl: case Opcode::kShr: case Opcode::kSlt:
    case Opcode::kSltu: case Opcode::kFadd: case Opcode::kFsub:
    case Opcode::kFmul: case Opcode::kFdiv: case Opcode::kGaddr:
    case Opcode::kStore: case Opcode::kBeq: case Opcode::kBne:
    case Opcode::kBlt: case Opcode::kBge: case Opcode::kReadB:
    case Opcode::kWrite: case Opcode::kSpawn: case Opcode::kFMark:
      return ra | rb;
    case Opcode::kAddi: case Opcode::kLoad: case Opcode::kRead:
    case Opcode::kFDrop:
      return ra;
    case Opcode::kLi: case Opcode::kJmp: case Opcode::kProc:
    case Opcode::kBarrier: case Opcode::kYield: case Opcode::kHalt:
      return 0;
  }
  return 0;
}

/// The register instruction `in` writes, or -1. The kRead destination is
/// defined on the resume edge — kRead terminates its block, so adding
/// the bit after the per-instruction source check lands it in the
/// block's OUT set, exactly the resume-edge semantics.
int dest_reg(const Instruction& in) {
  switch (in.op) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
    case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor:
    case Opcode::kShl: case Opcode::kShr: case Opcode::kSlt:
    case Opcode::kSltu: case Opcode::kFadd: case Opcode::kFsub:
    case Opcode::kFmul: case Opcode::kFdiv: case Opcode::kGaddr:
    case Opcode::kAddi: case Opcode::kLi: case Opcode::kLoad:
    case Opcode::kProc: case Opcode::kRead:
      return in.rd;
    default:
      return -1;
  }
}

Severity severity_of(FindingKind kind) {
  switch (kind) {
    case FindingKind::kUnreachableCode:
    case FindingKind::kSpinWithoutSuspend:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

/// Edge classification + orders for the path-count analyses: back edges
/// (to a block on the DFS stack) are cut, leaving a DAG whose reverse
/// postorder is a topological order.
struct DagView {
  std::vector<std::uint32_t> rpo;  ///< reachable blocks, topologically
  std::vector<std::vector<std::uint32_t>> forward_pred;  ///< non-back preds
  struct BackEdge {
    std::uint32_t from, to;
  };
  std::vector<BackEdge> back_edges;
};

DagView classify_edges(const Cfg& cfg) {
  const std::size_t n = cfg.blocks.size();
  DagView dag;
  dag.forward_pred.resize(n);
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::uint32_t> postorder;
  // Iterative DFS with an explicit (block, next-successor) stack.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  stack.emplace_back(0, 0);
  color[0] = kGrey;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    if (next < cfg.blocks[b].succ.size()) {
      const std::uint32_t s = cfg.blocks[b].succ[next++];
      if (color[s] == kGrey) {
        dag.back_edges.push_back({b, s});
      } else {
        dag.forward_pred[s].push_back(b);
        if (color[s] == kWhite) {
          color[s] = kGrey;
          stack.emplace_back(s, 0);
        }
      }
    } else {
      color[b] = kBlack;
      postorder.push_back(b);
      stack.pop_back();
    }
  }
  dag.rpo.assign(postorder.rbegin(), postorder.rend());
  return dag;
}

class Verifier {
 public:
  Verifier(const isa::Program& program, Report& report)
      : program_(program), report_(report), cfg_(build_cfg(program)),
        dag_(classify_edges(cfg_)) {}

  void run() {
    scan_instructions();
    scan_structure();
    check_use_before_def();
    check_path_counts(/*frames=*/true);
    check_path_counts(/*frames=*/false);
    check_spin_loops();
    std::stable_sort(
        report_.findings.begin(), report_.findings.end(),
        [](const Finding& a, const Finding& b) { return a.instr < b.instr; });
  }

 private:
  void add(FindingKind kind, std::uint32_t instr, std::string message) {
    Finding f;
    f.kind = kind;
    f.severity = severity_of(kind);
    f.instr = instr;
    f.line = program_.line_of(instr);
    f.message = std::move(message);
    report_.findings.push_back(std::move(f));
  }

  // --- per-instruction structural checks -------------------------------
  void scan_instructions() {
    const auto& code = program_.code;
    for (std::uint32_t i = 0; i < code.size(); ++i) {
      const Instruction& in = code[i];
      if (is_branch(in.op) &&
          (in.imm < 0 || static_cast<std::size_t>(in.imm) >= code.size())) {
        add(FindingKind::kBranchOutOfRange, i,
            "branch target " + std::to_string(in.imm) +
                " is outside the program (valid range 0.." +
                std::to_string(code.size() - 1) + ")");
      }
      if (in.op == Opcode::kReadB && in.imm <= 0) {
        add(FindingKind::kBadBlockReadLength, i,
            "block read of " + std::to_string(in.imm) +
                " words (the length must be >= 1)");
      }
      if (in.op == Opcode::kRead && in.rd == 0) {
        add(FindingKind::kReadIntoZero, i,
            "remote read into the hardwired-zero r0: the split-phase reply "
            "is discarded");
      }
    }
  }

  // --- block-level structure -------------------------------------------
  void scan_structure() {
    for (std::uint32_t b = 0; b < cfg_.blocks.size(); ++b) {
      const Block& blk = cfg_.blocks[b];
      if (!cfg_.reachable[b]) {
        add(FindingKind::kUnreachableCode, blk.first,
            "instructions #" + std::to_string(blk.first) + "..#" +
                std::to_string(blk.last) + " are unreachable from the entry");
        continue;  // nothing below this block can execute
      }
      if (blk.falls_off_end) {
        add(FindingKind::kFallOffEnd, blk.last,
            "execution can fall off the end of the program here (end the "
            "path with halt or an unconditional jump)");
      }
    }
  }

  // --- use-before-def (must-dataflow over the register file) -----------
  void check_use_before_def() {
    const std::size_t n = cfg_.blocks.size();
    // Bit r set = register r definitely defined on every path here. On
    // entry r0 (hardwired zero) and r1 (the spawn argument) are defined.
    constexpr std::uint32_t kEntryMask = 0b11;
    constexpr std::uint32_t kTop = 0xffffffffu;
    std::vector<std::uint32_t> in(n, kTop), out(n, kTop);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t b : dag_.rpo) {
        // Paths into the entry include the program start itself, where
        // only r0/r1 are defined; everywhere else intersect over preds.
        std::uint32_t mask = b == 0 ? kEntryMask : kTop;
        for (std::uint32_t p : cfg_.blocks[b].pred)
          if (cfg_.reachable[p]) mask &= out[p];
        in[b] = mask;
        const std::uint32_t new_out = out_mask(b, mask);
        if (new_out != out[b]) {
          out[b] = new_out;
          changed = true;
        }
      }
    }
    // Report pass: walk each reachable block with its converged IN set.
    for (std::uint32_t b : dag_.rpo) {
      std::uint32_t mask = in[b];
      for (std::uint32_t i = cfg_.blocks[b].first; i <= cfg_.blocks[b].last;
           ++i) {
        const Instruction& instr = program_.code[i];
        std::uint32_t missing = source_mask(instr) & ~mask;
        while (missing != 0) {
          const int r = std::countr_zero(missing);
          missing &= missing - 1;
          std::string msg(1, 'r');
          msg += std::to_string(r);
          msg += " is read, but no definition reaches it on some path";
          add(FindingKind::kUseBeforeDef, i, std::move(msg));
        }
        const int rd = dest_reg(instr);
        if (rd > 0) mask |= std::uint32_t{1} << rd;
        mask |= 1;  // r0 is always defined
      }
    }
  }

  std::uint32_t out_mask(std::uint32_t b, std::uint32_t in_mask) const {
    std::uint32_t mask = in_mask | 1;
    for (std::uint32_t i = cfg_.blocks[b].first; i <= cfg_.blocks[b].last; ++i) {
      const int rd = dest_reg(program_.code[i]);
      if (rd > 0) mask |= std::uint32_t{1} << rd;
    }
    return mask;
  }

  // --- all-paths frame-depth / barrier-count consistency ---------------
  //
  // Both analyses propagate an integer along the back-edge-free DAG in
  // reverse postorder. Frames: kFMark +1, kFDrop -1, all paths into a
  // join must agree, every loop iteration must be balanced, and halt
  // must see depth 0. Barriers: kBarrier +1, all paths into a join must
  // agree, and every back edge into a loop head must add the same count.
  void check_path_counts(bool frames) {
    const std::size_t n = cfg_.blocks.size();
    const FindingKind mismatch = frames ? FindingKind::kFramePathMismatch
                                        : FindingKind::kBarrierPathMismatch;
    const char* noun = frames ? "frame depth" : "barrier count";
    std::vector<int> count_in(n, 0), count_out(n, 0);
    std::vector<bool> valid(n, false);
    for (std::uint32_t b : dag_.rpo) {
      int entering = 0;
      bool have = b == 0;  // the entry starts at zero
      bool reported = false;
      for (std::uint32_t p : dag_.forward_pred[b]) {
        if (!valid[p]) continue;
        if (!have) {
          entering = count_out[p];
          have = true;
        } else if (count_out[p] != entering && !reported) {
          add(mismatch, cfg_.blocks[b].first,
              std::string(noun) + " disagrees between paths joining here (" +
                  std::to_string(entering) + " vs " +
                  std::to_string(count_out[p]) + ")");
          reported = true;
        }
      }
      if (!have) continue;  // poisoned upstream; avoid cascading reports
      count_in[b] = entering;
      valid[b] = !reported;
      int depth = entering;
      for (std::uint32_t i = cfg_.blocks[b].first; i <= cfg_.blocks[b].last;
           ++i) {
        const Opcode op = program_.code[i].op;
        if (frames) {
          if (op == Opcode::kFMark) ++depth;
          if (op == Opcode::kFDrop) {
            if (depth == 0) {
              add(FindingKind::kFrameUnderflow, i,
                  "frame drop with no marked region outstanding on this path");
              valid[b] = false;
            } else {
              --depth;
            }
          }
          if (op == Opcode::kHalt && depth > 0) {
            add(FindingKind::kFrameLeak, i,
                std::to_string(depth) +
                    " frame region(s) still marked when the thread halts "
                    "on this path (missing fdrop)");
          }
        } else if (op == Opcode::kBarrier) {
          ++depth;
        }
      }
      count_out[b] = depth;
    }
    // Back edges: a loop iteration must be frame-balanced, and every
    // back edge into the same loop head must contribute the same number
    // of barriers per trip.
    std::vector<int> head_delta(n, -1);
    for (const auto& e : dag_.back_edges) {
      if (!valid[e.from] || !valid[e.to]) continue;
      const int delta = count_out[e.from] - count_in[e.to];
      if (frames) {
        if (delta != 0) {
          add(mismatch, cfg_.blocks[e.from].last,
              "a trip around this loop changes the frame depth by " +
                  std::to_string(delta) + " (marks and drops must balance "
                  "per iteration)");
        }
      } else if (head_delta[e.to] < 0) {
        head_delta[e.to] = delta;
      } else if (head_delta[e.to] != delta) {
        add(mismatch, cfg_.blocks[e.from].last,
            "paths around this loop execute different numbers of barriers "
            "per iteration (" + std::to_string(head_delta[e.to]) + " vs " +
                std::to_string(delta) + ")");
      }
    }
  }

  // --- suspend-free spin loops (SCCs with no suspend point) ------------
  void check_spin_loops() {
    const std::size_t n = cfg_.blocks.size();
    // Tarjan's SCC over the reachable subgraph.
    std::vector<std::uint32_t> index(n, kNoBlock), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::uint32_t> scc_stack;
    std::uint32_t next_index = 0;
    struct Frame {
      std::uint32_t b;
      std::size_t next_succ;
    };
    for (std::uint32_t root = 0; root < n; ++root) {
      if (!cfg_.reachable[root] || index[root] != kNoBlock) continue;
      std::vector<Frame> call{{root, 0}};
      index[root] = low[root] = next_index++;
      scc_stack.push_back(root);
      on_stack[root] = true;
      while (!call.empty()) {
        Frame& f = call.back();
        if (f.next_succ < cfg_.blocks[f.b].succ.size()) {
          const std::uint32_t s = cfg_.blocks[f.b].succ[f.next_succ++];
          if (index[s] == kNoBlock) {
            index[s] = low[s] = next_index++;
            scc_stack.push_back(s);
            on_stack[s] = true;
            call.push_back({s, 0});
          } else if (on_stack[s]) {
            low[f.b] = std::min(low[f.b], index[s]);
          }
        } else {
          const std::uint32_t b = f.b;
          call.pop_back();
          if (!call.empty())
            low[call.back().b] = std::min(low[call.back().b], low[b]);
          if (low[b] == index[b]) {
            std::vector<std::uint32_t> scc;
            for (;;) {
              const std::uint32_t m = scc_stack.back();
              scc_stack.pop_back();
              on_stack[m] = false;
              scc.push_back(m);
              if (m == b) break;
            }
            inspect_scc(scc);
          }
        }
      }
    }
  }

  void inspect_scc(const std::vector<std::uint32_t>& scc) {
    const bool self_loop =
        scc.size() == 1 &&
        std::find(cfg_.blocks[scc[0]].succ.begin(),
                  cfg_.blocks[scc[0]].succ.end(),
                  scc[0]) != cfg_.blocks[scc[0]].succ.end();
    if (scc.size() < 2 && !self_loop) return;
    std::uint32_t first = 0xffffffffu, last = 0;
    for (std::uint32_t b : scc) {
      first = std::min(first, cfg_.blocks[b].first);
      last = std::max(last, cfg_.blocks[b].last);
      for (std::uint32_t i = cfg_.blocks[b].first; i <= cfg_.blocks[b].last;
           ++i) {
        if (is_suspend_point(program_.code[i].op)) return;
      }
    }
    add(FindingKind::kSpinWithoutSuspend, first,
        "loop through instructions #" + std::to_string(first) + "..#" +
            std::to_string(last) +
            " contains no suspend point (yield/read/readb/write/spawn/"
            "barrier): a spin here never hands the EXU to sibling threads");
  }

  const isa::Program& program_;
  Report& report_;
  Cfg cfg_;
  DagView dag_;
};

}  // namespace

const char* to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::kUseBeforeDef: return "use-before-def";
    case FindingKind::kReadIntoZero: return "read-into-r0";
    case FindingKind::kFrameUnderflow: return "frame-underflow";
    case FindingKind::kFramePathMismatch: return "frame-path-mismatch";
    case FindingKind::kFrameLeak: return "frame-leak";
    case FindingKind::kBarrierPathMismatch: return "barrier-path-mismatch";
    case FindingKind::kUnreachableCode: return "unreachable-code";
    case FindingKind::kFallOffEnd: return "fall-off-end";
    case FindingKind::kBranchOutOfRange: return "branch-out-of-range";
    case FindingKind::kBadBlockReadLength: return "bad-block-read-length";
    case FindingKind::kSpinWithoutSuspend: return "spin-without-suspend";
  }
  return "?";
}

std::string Finding::describe() const {
  std::string out = severity == Severity::kError ? "error: " : "warning: ";
  out += to_string(kind);
  out += " at #" + std::to_string(instr);
  if (line > 0) out += " (line " + std::to_string(line) + ")";
  out += ": " + message;
  return out;
}

std::size_t Report::errors() const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.severity == Severity::kError) ++n;
  return n;
}

std::size_t Report::warnings() const { return findings.size() - errors(); }

std::size_t Report::count(FindingKind kind) const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.kind == kind) ++n;
  return n;
}

std::string Report::summary_text() const {
  std::string out;
  for (const Finding& f : findings) {
    if (!name.empty()) out += name + ": ";
    out += f.describe();
    out += '\n';
  }
  return out;
}

Report verify_program(const isa::Program& program, std::string name) {
  Report report;
  report.name = std::move(name);
  EMX_CHECK(!program.code.empty(), "cannot verify an empty program");
  Verifier(program, report).run();
  return report;
}

}  // namespace emx::verify
