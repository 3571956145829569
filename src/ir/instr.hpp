// TxIR instruction set.
//
// A register machine (registers are assignable, not SSA) over 64-bit values.
// Memory is the simulated heap; loads and stores are the objects of the
// whole analysis, so they carry access size and (for pointer-producing
// loads) the pointee type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.hpp"

namespace st::ir {

class BasicBlock;
class Function;

using Reg = std::uint16_t;
inline constexpr Reg kNoReg = 0xFFFF;

enum class Op : std::uint8_t {
  // Values.
  ConstI,  // dst = imm
  Mov,     // dst = a
  Add, Sub, Mul, SDiv, SRem,  // dst = a <op> b (signed where it matters)
  And, Or, Xor, Shl, LShr,
  CmpEq, CmpNe, CmpSLt, CmpSLe, CmpSGt, CmpSGe, CmpULt,  // dst = a <op> b ? 1 : 0

  // Addressing.
  Gep,       // dst = a + offset(type, field)        — record field address
  GepIndex,  // dst = a + b * type->elem_size        — array element address

  // Memory.
  Load,     // dst = mem[a], acc_size bytes
  Store,    // mem[a] = b
  NtLoad,   // nontransactional variants (§4)
  NtStore,
  Alloc,    // dst = new object of `type` (rolled back on abort)
  Free,     // free mem[a]'s block (deferred to commit)

  // Control flow.
  Br,      // goto t1
  CondBr,  // if a goto t1 else t2
  Call,    // dst = callee(args...)
  Ret,     // return a (or nothing when a == kNoReg)

  // Instrumentation (inserted by the staggered-transactions pass).
  AlPoint,  // advisory locking point: (alp_id, data address in a)

  Nop,
};

const char* op_name(Op op);
bool op_is_terminator(Op op);

struct Instr {
  Op op = Op::Nop;
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  std::int64_t imm = 0;

  const StructType* type = nullptr;  // Gep/GepIndex/Alloc; Load: pointee of result
  std::uint16_t field = 0;           // Gep field index; kArrayField for GepIndex
  std::uint8_t acc_size = 8;         // Load/Store/NtLoad/NtStore

  Function* callee = nullptr;
  std::vector<Reg> args;

  BasicBlock* t1 = nullptr;
  BasicBlock* t2 = nullptr;

  std::uint32_t pc = 0;       // assigned by Module::finalize()
  std::uint32_t alp_id = 0;   // AlPoint only

  bool is_terminator() const { return op_is_terminator(op); }
};

}  // namespace st::ir
