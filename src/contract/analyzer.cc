#include "contract/analyzer.h"

#include <algorithm>
#include <map>
#include <set>

namespace shardchain {

namespace {

struct Instruction {
  size_t offset = 0;
  Op op = Op::kStop;
  size_t size = 1;
  uint16_t jump_target = 0;  // For kJump / kJumpI.
  uint8_t index = 0;         // For kArg / kPartyBalance.
};

struct StackEffect {
  int pops = 0;
  int pushes = 0;
};

std::optional<StackEffect> EffectOf(Op op) {
  switch (op) {
    case Op::kStop:
    case Op::kRevert:
    case Op::kJump:
      return StackEffect{0, 0};
    case Op::kPush:
    case Op::kArg:
    case Op::kCallValue:
    case Op::kCallerBalance:
    case Op::kPartyBalance:
    case Op::kSelfBalance:
      return StackEffect{0, 1};
    case Op::kPop:
    case Op::kJumpI:
    case Op::kRequire:
    case Op::kTransferCaller:
      return StackEffect{1, 0};
    case Op::kDup:
      return StackEffect{1, 2};
    case Op::kSwap:
      return StackEffect{2, 2};
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kLt:
    case Op::kGt:
    case Op::kLe:
    case Op::kGe:
    case Op::kEq:
    case Op::kNeq:
    case Op::kAnd:
    case Op::kOr:
      return StackEffect{2, 1};
    case Op::kNot:
      return StackEffect{1, 1};
    case Op::kSLoad:
      return StackEffect{1, 1};
    case Op::kSStore:
    case Op::kTransfer:
      return StackEffect{2, 0};
  }
  return std::nullopt;
}

size_t InstructionSize(Op op) {
  switch (op) {
    case Op::kPush:
      return 9;
    case Op::kJump:
    case Op::kJumpI:
      return 3;
    case Op::kArg:
    case Op::kPartyBalance:
      return 2;
    default:
      return 1;
  }
}

uint64_t GasOf(Op op) {
  switch (op) {
    case Op::kCallerBalance:
    case Op::kPartyBalance:
    case Op::kSelfBalance:
    case Op::kSLoad:
    case Op::kSStore:
    case Op::kTransfer:
    case Op::kTransferCaller:
      return Vm::kGasPerOp + Vm::kGasPerStateOp;
    default:
      return Vm::kGasPerOp;
  }
}

/// Possible stack depths at an instruction entry, as an interval.
struct DepthRange {
  int lo = 0;
  int hi = 0;
  bool reached = false;
};

}  // namespace

AnalysisReport AnalyzeProgram(const ContractProgram& program) {
  AnalysisReport report;
  const Bytes& code = program.code;

  // --- Pass 1: decode ----------------------------------------------------
  std::vector<Instruction> instrs;
  std::map<size_t, size_t> index_of_offset;  // offset -> instrs index.
  size_t pc = 0;
  while (pc < code.size()) {
    Instruction ins;
    ins.offset = pc;
    ins.op = static_cast<Op>(code[pc]);
    if (!EffectOf(ins.op).has_value()) {
      report.errors.push_back("invalid opcode at offset " +
                              std::to_string(pc));
      return report;
    }
    ins.size = InstructionSize(ins.op);
    if (pc + ins.size > code.size()) {
      report.errors.push_back("truncated instruction at offset " +
                              std::to_string(pc));
      return report;
    }
    if (ins.op == Op::kJump || ins.op == Op::kJumpI) {
      ins.jump_target = static_cast<uint16_t>((code[pc + 1] << 8) |
                                              code[pc + 2]);
    }
    if (ins.op == Op::kArg || ins.op == Op::kPartyBalance) {
      ins.index = code[pc + 1];
    }
    index_of_offset[pc] = instrs.size();
    instrs.push_back(ins);
    pc += ins.size;
  }

  // --- Pass 2: structural checks ------------------------------------------
  for (const Instruction& ins : instrs) {
    if (ins.op == Op::kJump || ins.op == Op::kJumpI) {
      if (ins.jump_target != code.size() &&
          index_of_offset.count(ins.jump_target) == 0) {
        report.errors.push_back("jump to mid-instruction offset " +
                                std::to_string(ins.jump_target));
      }
    }
    if (ins.op == Op::kPartyBalance && ins.index >= program.parties.size()) {
      report.errors.push_back("party index " + std::to_string(ins.index) +
                              " out of range at offset " +
                              std::to_string(ins.offset));
    }
    if (ins.op == Op::kArg) {
      report.required_args =
          std::max(report.required_args, static_cast<size_t>(ins.index) + 1);
    }
  }
  if (!report.errors.empty()) return report;

  // --- Pass 3: abstract interpretation of stack depths ---------------------
  const size_t n = instrs.size();
  std::vector<DepthRange> entry(n);
  if (n > 0) {
    entry[0] = DepthRange{0, 0, true};
  }
  auto successor_indices = [&](size_t i) {
    std::vector<size_t> out;
    const Instruction& ins = instrs[i];
    const bool falls_through = ins.op != Op::kStop && ins.op != Op::kRevert &&
                               ins.op != Op::kJump;
    if (falls_through && i + 1 < n) out.push_back(i + 1);
    if (ins.op == Op::kJump || ins.op == Op::kJumpI) {
      if (ins.jump_target != code.size()) {
        out.push_back(index_of_offset.at(ins.jump_target));
      }
    }
    return out;
  };

  bool changed = true;
  size_t sweeps = 0;
  while (changed && sweeps < n + 8) {
    changed = false;
    ++sweeps;
    for (size_t i = 0; i < n; ++i) {
      if (!entry[i].reached) continue;
      const StackEffect effect = *EffectOf(instrs[i].op);
      if (entry[i].lo < effect.pops) report.may_underflow = true;
      const int out_lo = std::max(entry[i].lo - effect.pops, 0) + effect.pushes;
      const int out_hi = std::max(entry[i].hi - effect.pops, 0) + effect.pushes;
      report.max_stack = std::max(report.max_stack,
                                  static_cast<size_t>(std::max(out_hi, 0)));
      for (size_t succ : successor_indices(i)) {
        DepthRange merged = entry[succ];
        if (!merged.reached) {
          merged = DepthRange{out_lo, out_hi, true};
        } else {
          merged.lo = std::min(merged.lo, out_lo);
          merged.hi = std::max(merged.hi, out_hi);
        }
        if (merged.lo != entry[succ].lo || merged.hi != entry[succ].hi ||
            !entry[succ].reached) {
          entry[succ] = merged;
          changed = true;
        }
      }
    }
  }

  // --- Pass 4: cycle detection + gas bound ---------------------------------
  std::vector<int> color(n, 0);  // 0 white, 1 grey, 2 black.
  std::vector<uint64_t> gas_to_end(n, 0);
  // Iterative DFS for cycles.
  for (size_t start = 0; start < n && !report.has_loops; ++start) {
    if (color[start] != 0) continue;
    std::vector<std::pair<size_t, size_t>> stack{{start, 0}};
    color[start] = 1;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto succs = successor_indices(node);
      if (child < succs.size()) {
        const size_t next = succs[child++];
        if (color[next] == 1) {
          report.has_loops = true;
          break;
        }
        if (color[next] == 0) {
          color[next] = 1;
          stack.emplace_back(next, 0);
        }
      } else {
        color[node] = 2;
        stack.pop_back();
      }
    }
  }
  if (!report.has_loops && n > 0) {
    // Longest-path DP in reverse instruction order works because all
    // jumps in an acyclic program go forward... not necessarily; use
    // memoized recursion instead.
    std::vector<int8_t> done(n, 0);
    std::vector<size_t> order;
    std::vector<std::pair<size_t, size_t>> stack{{0, 0}};
    // Topological order via DFS finish times from entry.
    std::vector<int8_t> visited(n, 0);
    visited[0] = 1;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto succs = successor_indices(node);
      if (child < succs.size()) {
        const size_t next = succs[child++];
        if (!visited[next]) {
          visited[next] = 1;
          stack.emplace_back(next, 0);
        }
      } else {
        order.push_back(node);
        stack.pop_back();
      }
    }
    for (size_t node : order) {  // Finish order = reverse topological.
      uint64_t best = 0;
      for (size_t succ : successor_indices(node)) {
        best = std::max(best, gas_to_end[succ]);
      }
      gas_to_end[node] = GasOf(instrs[node].op) + best;
      (void)done;
    }
    report.gas_upper_bound = gas_to_end[0];
  }

  report.valid = report.errors.empty();
  return report;
}

Status ValidateProgram(const ContractProgram& program) {
  const AnalysisReport report = AnalyzeProgram(program);
  if (!report.valid) {
    return Status::InvalidArgument("contract rejected: " +
                                   (report.errors.empty()
                                        ? std::string("structural error")
                                        : report.errors.front()));
  }
  if (report.may_underflow) {
    return Status::InvalidArgument(
        "contract rejected: possible stack underflow");
  }
  if (report.max_stack > Vm::kMaxStack) {
    return Status::InvalidArgument("contract rejected: stack depth bound " +
                                   std::to_string(report.max_stack) +
                                   " exceeds VM limit");
  }
  return Status::OK();
}

}  // namespace shardchain
