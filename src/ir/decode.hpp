// Pre-decoded code cache.
//
// The interpreter's hot loop used to walk std::list<Instr> nodes — one
// pointer chase plus iterator bookkeeping per executed instruction. A
// DecodedCode flattens a function's basic blocks into one contiguous
// vector of DecodedInstr with dense instruction indices: branch targets
// are resolved to indices, call argument registers live in a pooled
// array, and every instruction carries a boundary flag telling the
// interpreter whether it may be folded into a fused pure-register run
// (see interp/interp.hpp) or must start a step of its own.
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

/// Decoded opcode: every ir::Op value (same encoding — see the
/// static_assert below) plus decode-time superinstructions that fold a
/// ConstI into the binary instruction consuming it. Superinstructions
/// never appear in IR; they exist only inside DecodedCode.
enum class DecOp : std::uint8_t {
  ConstI, Mov,
  Add, Sub, Mul, SDiv, SRem,
  And, Or, Xor, Shl, LShr,
  CmpEq, CmpNe, CmpSLt, CmpSLe, CmpSGt, CmpSGe, CmpULt,
  Gep, GepIndex,
  Load, Store, NtLoad, NtStore, Alloc, Free,
  Br, CondBr, Call, Ret, AlPoint,
  Nop,
  // --- decode-time superinstructions (ConstI b,imm + <op> dst,a,b) ---
  AddImm, SubImm, MulImm,
  AndImm, OrImm, XorImm, ShlImm, LShrImm,
  CmpEqImm, CmpNeImm, CmpSLtImm, CmpSLeImm, CmpSGtImm, CmpSGeImm, CmpULtImm,
};

/// Hot record: everything the fused pure-register loop touches, packed
/// into 24 bytes so one cache line holds more than two instructions.
/// Boundary instructions stash an index into DecodedCode::ext in `t1`
/// (they have no branch targets, so the slot is free).
///
/// Pair fusion: a pure non-branch instruction immediately followed by a
/// branch can absorb that branch at decode time (kFusedBr: the next Br;
/// kFusedCondBr: the next CondBr when it tests this instruction's dst).
/// The fused instruction borrows the branch's target slots in t1/t2 and
/// retires both instructions — same registers written, same cycle cost,
/// same retired-instruction count as executing the pair separately; only
/// the dispatch overhead disappears. The absorbed branch stays in the
/// code array so jumps that target it directly still execute it.
///
/// Imm fusion: a ConstI immediately followed by a cost-1 binary op whose
/// b operand is the ConstI's dst becomes one *Imm superinstruction
/// (writing both registers, retiring two instructions for two cycles).
/// The absorbed binary op likewise stays in the code array, both for
/// direct jumps to it and for resuming when the step budget splits the
/// pair. An imm-fused instruction can additionally absorb a Mov that
/// copies its result out (kFusedMov, Mov dst stored in t2 — the pattern
/// FunctionBuilder::assign emits), and after that the branch that closes
/// the run: ConstI + Add + Mov + Br — a whole loop-body block — retires
/// in one dispatch round. Every absorbed instruction remains in the code
/// array and executes individually when the budget splits the run.
struct DecodedInstr {
  static constexpr std::uint8_t kBoundary = 1;    // starts its own step
  static constexpr std::uint8_t kFusedBr = 2;     // next = t1 after this op
  static constexpr std::uint8_t kFusedCondBr = 4; // next = dst ? t1 : t2
  static constexpr std::uint8_t kFusedMov = 8;    // regs[t2] = regs[dst]

  DecOp op = DecOp::Nop;
  std::uint8_t flags = 0;
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  std::int64_t imm = 0;
  std::uint32_t t1 = 0;  // Br/CondBr/fused: target code index; boundary: ext index
  std::uint32_t t2 = 0;  // CondBr/kFusedCondBr: false-edge code index

  bool is_boundary() const { return (flags & kBoundary) != 0; }
};
static_assert(sizeof(DecodedInstr) == 24);

// DecOp mirrors ir::Op value-for-value so decoding is a cast; spot-check
// the first, last, and a middle enumerator.
static_assert(static_cast<int>(DecOp::ConstI) == static_cast<int>(Op::ConstI));
static_assert(static_cast<int>(DecOp::Load) == static_cast<int>(Op::Load));
static_assert(static_cast<int>(DecOp::Nop) == static_cast<int>(Op::Nop));

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
