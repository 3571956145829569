#include "ir/instr.hpp"

namespace st::ir {

const char* op_name(Op op) {
  switch (op) {
    case Op::ConstI: return "const";
    case Op::Mov: return "mov";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Mul: return "mul";
    case Op::SDiv: return "sdiv";
    case Op::SRem: return "srem";
    case Op::And: return "and";
    case Op::Or: return "or";
    case Op::Xor: return "xor";
    case Op::Shl: return "shl";
    case Op::LShr: return "lshr";
    case Op::CmpEq: return "cmp.eq";
    case Op::CmpNe: return "cmp.ne";
    case Op::CmpSLt: return "cmp.slt";
    case Op::CmpSLe: return "cmp.sle";
    case Op::CmpSGt: return "cmp.sgt";
    case Op::CmpSGe: return "cmp.sge";
    case Op::CmpULt: return "cmp.ult";
    case Op::Gep: return "gep";
    case Op::GepIndex: return "gep.idx";
    case Op::Load: return "load";
    case Op::Store: return "store";
    case Op::NtLoad: return "nt.load";
    case Op::NtStore: return "nt.store";
    case Op::Alloc: return "alloc";
    case Op::Free: return "free";
    case Op::Br: return "br";
    case Op::CondBr: return "br.cond";
    case Op::Call: return "call";
    case Op::Ret: return "ret";
    case Op::AlPoint: return "alpoint";
    case Op::Nop: return "nop";
  }
  return "?";
}

bool op_is_terminator(Op op) {
  return op == Op::Br || op == Op::CondBr || op == Op::Ret;
}

}  // namespace st::ir
