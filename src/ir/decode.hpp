// Pre-decoded code cache.
//
// The interpreter's hot loop used to walk std::list<Instr> nodes — one
// pointer chase plus iterator bookkeeping per executed instruction. A
// DecodedCode flattens a function's basic blocks into one contiguous
// vector with exactly one DecodedInstr per IR instruction, in block order:
// branch targets are resolved to indices, call argument registers live in
// a pooled array, and every instruction carries a boundary flag telling
// the interpreter whether it may join a fused pure-register run (see
// interp/interp.hpp) or must start a step of its own.
//
// Decoding is a pure function of the IR: it changes layout, never
// semantics, so decoded execution is bit-identical to list execution.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/instr.hpp"

namespace st::ir {

class Function;

/// Boundary instructions are the ones through which simulated cores can
/// observe or affect shared state (memory, allocator, advisory locks) or
/// that change the frame stack: Load/Store/NtLoad/NtStore/Alloc/Free/
/// Call/Ret/AlPoint. Everything else is pure register arithmetic and
/// control flow local to one core.
bool op_is_boundary(Op op);

/// Hot record: everything the pure-register loop touches, packed into 24
/// bytes so one cache line holds more than two instructions. `op` is the
/// IR opcode unchanged: decoding changes layout only. Boundary
/// instructions stash an index into DecodedCode::ext in `t1` (they have
/// no branch targets, so the slot is free).
struct DecodedInstr {
  Op op = Op::Nop;
  bool boundary = false;  // op_is_boundary(op): starts its own step
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  std::int64_t imm = 0;
  std::uint32_t t1 = 0;  // Br/CondBr: target code index; boundary: ext index
  std::uint32_t t2 = 0;  // CondBr: false-edge code index

  bool is_boundary() const { return boundary; }
};
static_assert(sizeof(DecodedInstr) == 24);

/// Cold side-table, one entry per *boundary* instruction: the fields only
/// the boundary dispatch reads.
struct DecodedExt {
  std::uint8_t acc_size = 8;         // Load/Store/NtLoad/NtStore
  std::uint32_t pc = 0;
  std::uint32_t alp_id = 0;          // AlPoint only
  const StructType* type = nullptr;  // Alloc
  Function* callee = nullptr;        // Call only
  std::uint32_t args_begin = 0;      // Call args: [args_begin, args_end)
  std::uint32_t args_end = 0;        //   into DecodedCode::args
};

struct DecodedCode {
  std::vector<DecodedInstr> code;
  std::vector<DecodedExt> ext;            // indexed by a boundary's t1
  std::vector<Reg> args;                  // pooled Call argument registers
  std::vector<std::uint32_t> block_start; // block id -> first code index
};

/// Flattens `f` into a DecodedCode. Every block must carry a terminator
/// (otherwise execution would fall off its end); violations abort.
DecodedCode decode_function(const Function& f);

}  // namespace st::ir
