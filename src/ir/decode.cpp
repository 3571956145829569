#include "ir/decode.hpp"

#include <unordered_map>

#include "common/check.hpp"
#include "ir/function.hpp"

namespace st::ir {

bool op_is_boundary(Op op) {
  switch (op) {
    case Op::Load:
    case Op::Store:
    case Op::NtLoad:
    case Op::NtStore:
    case Op::Alloc:
    case Op::Free:
    case Op::Call:
    case Op::Ret:
    case Op::AlPoint:
      return true;
    default:
      return false;
  }
}

namespace {

// Validates at decode time every register a pure instruction will touch, so
// the interpreter's fused loop can index the register file unchecked. The
// boundary ops keep their checks in the (cold) boundary dispatch.
void check_pure_operands(const Instr& ins, unsigned nregs) {
  const auto reg_ok = [nregs](Reg r) { return r < nregs; };
  switch (ins.op) {
    case Op::ConstI:
      ST_CHECK_MSG(reg_ok(ins.dst), "decode: register out of range");
      break;
    case Op::Mov:
    case Op::Gep:
      ST_CHECK_MSG(reg_ok(ins.dst) && reg_ok(ins.a),
                   "decode: register out of range");
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::SDiv:
    case Op::SRem:
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Shl:
    case Op::LShr:
    case Op::CmpEq:
    case Op::CmpNe:
    case Op::CmpSLt:
    case Op::CmpSLe:
    case Op::CmpSGt:
    case Op::CmpSGe:
    case Op::CmpULt:
    case Op::GepIndex:
      ST_CHECK_MSG(reg_ok(ins.dst) && reg_ok(ins.a) && reg_ok(ins.b),
                   "decode: register out of range");
      break;
    case Op::CondBr:
      ST_CHECK_MSG(reg_ok(ins.a), "decode: register out of range");
      break;
    case Op::Br:
    case Op::Nop:
      break;
    default:
      ST_UNREACHABLE("boundary opcode in pure operand validation");
  }
}

}  // namespace

DecodedCode decode_function(const Function& f) {
  DecodedCode out;
  out.code.reserve(f.instr_count());
  out.block_start.reserve(f.blocks().size());
  std::unordered_map<const BasicBlock*, std::uint32_t> start;

  // First pass: one record per instruction, boundary operands moved to the
  // side table, pure operands range-checked.
  for (const auto& b : f.blocks()) {
    ST_CHECK_MSG(b->has_terminator(),
                 "decode: block would fall off the end of a basic block");
    const auto first = static_cast<std::uint32_t>(out.code.size());
    out.block_start.push_back(first);
    start.emplace(b.get(), first);
    for (const Instr& ins : b->instrs()) {
      DecodedInstr d;
      d.op = ins.op;
      d.boundary = op_is_boundary(ins.op);
      d.dst = ins.dst;
      d.a = ins.a;
      d.b = ins.b;
      d.imm = ins.imm;
      if (d.boundary) {
        DecodedExt e;
        e.acc_size = ins.acc_size;
        e.pc = ins.pc;
        e.alp_id = ins.alp_id;
        e.type = ins.type;
        e.callee = ins.callee;
        if (!ins.args.empty()) {
          e.args_begin = static_cast<std::uint32_t>(out.args.size());
          out.args.insert(out.args.end(), ins.args.begin(), ins.args.end());
          e.args_end = static_cast<std::uint32_t>(out.args.size());
        }
        d.t1 = static_cast<std::uint32_t>(out.ext.size());
        out.ext.push_back(e);
      } else {
        check_pure_operands(ins, f.num_regs());
      }
      out.code.push_back(d);
    }
  }

  // Second pass: resolve branch targets to code indices.
  std::size_t idx = 0;
  for (const auto& b : f.blocks()) {
    for (const Instr& ins : b->instrs()) {
      DecodedInstr& d = out.code[idx++];
      if (ins.op == Op::Br || ins.op == Op::CondBr) {
        auto it1 = start.find(ins.t1);
        ST_CHECK_MSG(it1 != start.end(), "decode: branch to foreign block");
        d.t1 = it1->second;
        if (ins.op == Op::CondBr) {
          auto it2 = start.find(ins.t2);
          ST_CHECK_MSG(it2 != start.end(), "decode: branch to foreign block");
          d.t2 = it2->second;
        }
      }
    }
  }
  return out;
}

}  // namespace st::ir
