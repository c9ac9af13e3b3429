#include "contract/vm.h"

#include <cassert>
#include <cstddef>

namespace shardchain {

namespace {

/// Reads a big-endian signed 64-bit immediate.
int64_t ReadImm64(const Bytes& code, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | code[offset + i];
  return static_cast<int64_t>(v);
}

/// Reads a big-endian unsigned 16-bit immediate.
uint16_t ReadImm16(const Bytes& code, size_t offset) {
  return static_cast<uint16_t>((code[offset] << 8) | code[offset + 1]);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kStop: return "STOP";
    case Op::kPush: return "PUSH";
    case Op::kPop: return "POP";
    case Op::kDup: return "DUP";
    case Op::kSwap: return "SWAP";
    case Op::kAdd: return "ADD";
    case Op::kSub: return "SUB";
    case Op::kMul: return "MUL";
    case Op::kDiv: return "DIV";
    case Op::kMod: return "MOD";
    case Op::kLt: return "LT";
    case Op::kGt: return "GT";
    case Op::kLe: return "LE";
    case Op::kGe: return "GE";
    case Op::kEq: return "EQ";
    case Op::kNeq: return "NEQ";
    case Op::kAnd: return "AND";
    case Op::kOr: return "OR";
    case Op::kNot: return "NOT";
    case Op::kJump: return "JUMP";
    case Op::kJumpI: return "JUMPI";
    case Op::kRequire: return "REQUIRE";
    case Op::kRevert: return "REVERT";
    case Op::kArg: return "ARG";
    case Op::kCallValue: return "CALLVALUE";
    case Op::kCallerBalance: return "CALLERBALANCE";
    case Op::kPartyBalance: return "PARTYBALANCE";
    case Op::kSelfBalance: return "SELFBALANCE";
    case Op::kSLoad: return "SLOAD";
    case Op::kSStore: return "SSTORE";
    case Op::kTransfer: return "TRANSFER";
    case Op::kTransferCaller: return "TRANSFERCALLER";
  }
  return "INVALID";
}

Bytes ContractProgram::Serialize() const {
  Bytes out;
  out.reserve(12 + parties.size() * 20 + code.size());
  AppendUint32(&out, static_cast<uint32_t>(parties.size()));
  for (const Address& p : parties) {
    out.insert(out.end(), p.bytes.begin(), p.bytes.end());
  }
  AppendUint64(&out, code.size());
  out.insert(out.end(), code.begin(), code.end());
  return out;
}

Result<ContractProgram> ContractProgram::Deserialize(const Bytes& raw) {
  if (raw.size() < 4) return Status::Corruption("contract blob too short");
  uint32_t party_count = 0;
  for (int i = 0; i < 4; ++i) party_count = (party_count << 8) | raw[i];
  size_t offset = 4;
  if (raw.size() < offset + static_cast<size_t>(party_count) * 20 + 8) {
    return Status::Corruption("contract blob truncated in party list");
  }
  ContractProgram program;
  program.parties.resize(party_count);
  for (uint32_t i = 0; i < party_count; ++i) {
    for (int j = 0; j < 20; ++j) {
      program.parties[i].bytes[j] = raw[offset++];
    }
  }
  const uint64_t code_len = ReadUint64(raw, offset);
  offset += 8;
  if (raw.size() < offset + code_len) {
    return Status::Corruption("contract blob truncated in code");
  }
  program.code.assign(raw.begin() + static_cast<ptrdiff_t>(offset),
                      raw.begin() + static_cast<ptrdiff_t>(offset + code_len));
  return program;
}

Bytes Vm::EncodeArgs(const std::vector<int64_t>& args) {
  Bytes out;
  out.reserve(args.size() * 8);
  for (int64_t a : args) AppendUint64(&out, static_cast<uint64_t>(a));
  return out;
}

Result<std::vector<int64_t>> Vm::DecodeArgs(const Bytes& payload) {
  if (payload.size() % 8 != 0) {
    return Status::InvalidArgument("call payload not a multiple of 8 bytes");
  }
  std::vector<int64_t> args;
  args.reserve(payload.size() / 8);
  for (size_t i = 0; i < payload.size(); i += 8) {
    args.push_back(static_cast<int64_t>(ReadUint64(payload, i)));
  }
  return args;
}

Result<ExecReceipt> Vm::Execute(const ContractProgram& program,
                                const CallContext& ctx, StateDB* state) {
  assert(state != nullptr);
  // Saved-root revert point: O(1) to take and to roll back — no
  // full-state copy either way.
  const size_t snapshot = state->Snapshot();
  // Abort helper: rolls the state back and surfaces the error.
  auto fail = [&](Status st) -> Result<ExecReceipt> {
    Status revert = state->RevertTo(snapshot);
    assert(revert.ok());
    (void)revert;
    return st;
  };
  // Success helper: keeps the effects and retires the revert point so
  // the undo log does not accumulate across calls.
  auto succeed = [&](uint64_t gas_used,
                     std::vector<int64_t> final_stack) -> Result<ExecReceipt> {
    Status committed = state->Commit(snapshot);
    assert(committed.ok());
    (void)committed;
    return ExecReceipt{gas_used, std::move(final_stack)};
  };

  // The call value moves into the contract before the code runs.
  if (ctx.call_value > 0) {
    Status st = state->Transfer(ctx.caller, ctx.contract, ctx.call_value);
    if (!st.ok()) return fail(st);
  }

  const Bytes& code = program.code;
  std::vector<int64_t> stack;
  uint64_t gas = 0;
  uint64_t steps = 0;
  size_t pc = 0;

  auto pop = [&](int64_t* out) -> bool {
    if (stack.empty()) return false;
    *out = stack.back();
    stack.pop_back();
    return true;
  };
  auto push = [&](int64_t v) -> bool {
    if (stack.size() >= kMaxStack) return false;
    stack.push_back(v);
    return true;
  };
  auto binary = [&](auto fn) -> Status {
    int64_t b = 0, a = 0;
    if (!pop(&b) || !pop(&a)) {
      return Status::Corruption("stack underflow");
    }
    if (!push(fn(a, b))) return Status::Corruption("stack overflow");
    return Status::OK();
  };

  while (pc < code.size()) {
    if (++steps > kMaxSteps) {
      return fail(Status::Internal("step limit exceeded"));
    }
    const Op op = static_cast<Op>(code[pc]);
    gas += kGasPerOp;
    if (gas > ctx.gas_limit) return fail(Status::Internal("out of gas"));
    if (ctx.tracer) {
      ctx.tracer(TraceStep{pc, op, stack.size(), gas});
    }

    switch (op) {
      case Op::kStop:
        return succeed(gas, std::move(stack));
      case Op::kPush: {
        if (pc + 9 > code.size()) {
          return fail(Status::Corruption("truncated PUSH immediate"));
        }
        if (!push(ReadImm64(code, pc + 1))) {
          return fail(Status::Corruption("stack overflow"));
        }
        pc += 9;
        continue;
      }
      case Op::kPop: {
        int64_t v;
        if (!pop(&v)) return fail(Status::Corruption("stack underflow"));
        break;
      }
      case Op::kDup: {
        if (stack.empty()) return fail(Status::Corruption("stack underflow"));
        if (!push(stack.back())) {
          return fail(Status::Corruption("stack overflow"));
        }
        break;
      }
      case Op::kSwap: {
        if (stack.size() < 2) {
          return fail(Status::Corruption("stack underflow"));
        }
        std::swap(stack[stack.size() - 1], stack[stack.size() - 2]);
        break;
      }
      case Op::kAdd: {
        Status st = binary([](int64_t a, int64_t b) {
          return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                      static_cast<uint64_t>(b));
        });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kSub: {
        Status st = binary([](int64_t a, int64_t b) {
          return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                      static_cast<uint64_t>(b));
        });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kMul: {
        Status st = binary([](int64_t a, int64_t b) {
          return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                      static_cast<uint64_t>(b));
        });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kDiv: {
        int64_t b = 0, a = 0;
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Corruption("stack underflow"));
        }
        if (b == 0) return fail(Status::FailedPrecondition("division by zero"));
        if (!push(a / b)) return fail(Status::Corruption("stack overflow"));
        break;
      }
      case Op::kMod: {
        int64_t b = 0, a = 0;
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Corruption("stack underflow"));
        }
        if (b == 0) return fail(Status::FailedPrecondition("modulo by zero"));
        if (!push(a % b)) return fail(Status::Corruption("stack overflow"));
        break;
      }
      case Op::kLt: {
        Status st =
            binary([](int64_t a, int64_t b) -> int64_t { return a < b; });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kGt: {
        Status st =
            binary([](int64_t a, int64_t b) -> int64_t { return a > b; });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kLe: {
        Status st =
            binary([](int64_t a, int64_t b) -> int64_t { return a <= b; });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kGe: {
        Status st =
            binary([](int64_t a, int64_t b) -> int64_t { return a >= b; });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kEq: {
        Status st =
            binary([](int64_t a, int64_t b) -> int64_t { return a == b; });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kNeq: {
        Status st =
            binary([](int64_t a, int64_t b) -> int64_t { return a != b; });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kAnd: {
        Status st = binary([](int64_t a, int64_t b) -> int64_t {
          return (a != 0) && (b != 0);
        });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kOr: {
        Status st = binary([](int64_t a, int64_t b) -> int64_t {
          return (a != 0) || (b != 0);
        });
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kNot: {
        int64_t v;
        if (!pop(&v)) return fail(Status::Corruption("stack underflow"));
        if (!push(v == 0)) return fail(Status::Corruption("stack overflow"));
        break;
      }
      case Op::kJump: {
        if (pc + 3 > code.size()) {
          return fail(Status::Corruption("truncated JUMP target"));
        }
        const uint16_t target = ReadImm16(code, pc + 1);
        if (target > code.size()) {
          return fail(Status::Corruption("jump out of bounds"));
        }
        pc = target;
        continue;
      }
      case Op::kJumpI: {
        if (pc + 3 > code.size()) {
          return fail(Status::Corruption("truncated JUMPI target"));
        }
        int64_t cond;
        if (!pop(&cond)) return fail(Status::Corruption("stack underflow"));
        if (cond != 0) {
          const uint16_t target = ReadImm16(code, pc + 1);
          if (target > code.size()) {
            return fail(Status::Corruption("jump out of bounds"));
          }
          pc = target;
          continue;
        }
        pc += 3;
        continue;
      }
      case Op::kRequire: {
        int64_t cond;
        if (!pop(&cond)) return fail(Status::Corruption("stack underflow"));
        if (cond == 0) {
          return fail(Status::FailedPrecondition("contract condition failed"));
        }
        break;
      }
      case Op::kRevert:
        return fail(Status::FailedPrecondition("contract reverted"));
      case Op::kArg: {
        if (pc + 2 > code.size()) {
          return fail(Status::Corruption("truncated ARG index"));
        }
        const uint8_t idx = code[pc + 1];
        if (idx >= ctx.args.size()) {
          return fail(Status::OutOfRange("call argument index out of range"));
        }
        if (!push(ctx.args[idx])) {
          return fail(Status::Corruption("stack overflow"));
        }
        pc += 2;
        continue;
      }
      case Op::kCallValue: {
        if (!push(static_cast<int64_t>(ctx.call_value))) {
          return fail(Status::Corruption("stack overflow"));
        }
        break;
      }
      case Op::kCallerBalance: {
        gas += kGasPerStateOp;
        if (!push(static_cast<int64_t>(state->BalanceOf(ctx.caller)))) {
          return fail(Status::Corruption("stack overflow"));
        }
        break;
      }
      case Op::kPartyBalance: {
        if (pc + 2 > code.size()) {
          return fail(Status::Corruption("truncated PARTYBALANCE index"));
        }
        gas += kGasPerStateOp;
        const uint8_t idx = code[pc + 1];
        if (idx >= program.parties.size()) {
          return fail(Status::OutOfRange("party index out of range"));
        }
        if (!push(static_cast<int64_t>(
                state->BalanceOf(program.parties[idx])))) {
          return fail(Status::Corruption("stack overflow"));
        }
        pc += 2;
        continue;
      }
      case Op::kSelfBalance: {
        gas += kGasPerStateOp;
        if (!push(static_cast<int64_t>(state->BalanceOf(ctx.contract)))) {
          return fail(Status::Corruption("stack overflow"));
        }
        break;
      }
      case Op::kSLoad: {
        gas += kGasPerStateOp;
        int64_t key;
        if (!pop(&key)) return fail(Status::Corruption("stack underflow"));
        if (!push(state->StorageGet(ctx.contract,
                                    static_cast<uint64_t>(key)))) {
          return fail(Status::Corruption("stack overflow"));
        }
        break;
      }
      case Op::kSStore: {
        gas += kGasPerStateOp;
        int64_t value, key;
        if (!pop(&key) || !pop(&value)) {
          return fail(Status::Corruption("stack underflow"));
        }
        state->StorageSet(ctx.contract, static_cast<uint64_t>(key), value);
        break;
      }
      case Op::kTransfer: {
        gas += kGasPerStateOp;
        int64_t party_idx, amount;
        if (!pop(&party_idx) || !pop(&amount)) {
          return fail(Status::Corruption("stack underflow"));
        }
        if (party_idx < 0 ||
            static_cast<size_t>(party_idx) >= program.parties.size()) {
          return fail(Status::OutOfRange("transfer party out of range"));
        }
        if (amount < 0) {
          return fail(Status::InvalidArgument("negative transfer amount"));
        }
        Status st = state->Transfer(
            ctx.contract, program.parties[static_cast<size_t>(party_idx)],
            static_cast<Amount>(amount));
        if (!st.ok()) return fail(st);
        break;
      }
      case Op::kTransferCaller: {
        gas += kGasPerStateOp;
        int64_t amount;
        if (!pop(&amount)) return fail(Status::Corruption("stack underflow"));
        if (amount < 0) {
          return fail(Status::InvalidArgument("negative transfer amount"));
        }
        Status st = state->Transfer(ctx.contract, ctx.caller,
                                    static_cast<Amount>(amount));
        if (!st.ok()) return fail(st);
        break;
      }
      default:
        return fail(Status::Corruption("invalid opcode"));
    }
    ++pc;
  }
  // Falling off the end of the code is an implicit STOP.
  return succeed(gas, std::move(stack));
}

}  // namespace shardchain
