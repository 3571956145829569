#include <gtest/gtest.h>

#include <unordered_map>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/decode.hpp"

namespace st::interp {
namespace {

/// In-memory env: a plain map as memory; scripted ALP behaviour.
struct MapEnv final : ExecEnv {
  std::unordered_map<sim::Addr, std::uint64_t> mem;  // 8-byte cells
  std::vector<std::uint32_t> alps_seen;
  unsigned alp_retries_remaining = 0;
  sim::Addr next_alloc = 0x100000;
  std::vector<sim::Addr> freed;

  static std::uint64_t get_bytes(std::uint64_t cell, unsigned off,
                                 unsigned size) {
    return (cell >> (8 * off)) & (size == 8 ? ~0ull : ((1ull << (8 * size)) - 1));
  }

  Mem load(sim::Addr a, unsigned size, std::uint32_t) override {
    const std::uint64_t cell = mem[a & ~7ull];
    return {get_bytes(cell, a & 7, size), 2, true};
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t) override {
    std::uint64_t& cell = mem[a & ~7ull];
    const unsigned off = a & 7;
    const std::uint64_t mask =
        (size == 8 ? ~0ull : ((1ull << (8 * size)) - 1)) << (8 * off);
    cell = (cell & ~mask) | ((v << (8 * off)) & mask);
    return {0, 2, true};
  }
  Mem nt_load(sim::Addr a, unsigned size) override { return load(a, size, 0); }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    return store(a, v, size, 0);
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out, std::uint32_t) override {
    out = next_alloc;
    next_alloc += (t->size + 63) & ~63u;
    return {out, Interp::kAllocCost, true};
  }
  void free_(sim::Addr a) override { freed.push_back(a); }
  AlpResult alpoint(std::uint32_t id, sim::Addr, std::uint32_t) override {
    if (alp_retries_remaining > 0) {
      --alp_retries_remaining;
      return {4, true, true};
    }
    alps_seen.push_back(id);
    return {1, false, true};
  }
};

std::uint64_t run(ir::Function* f, std::vector<std::uint64_t> args,
                  MapEnv* env = nullptr) {
  MapEnv local;
  MapEnv& e = env ? *env : local;
  Interp it(e);
  it.start(f, args);
  for (int guard = 0; guard < 1000000; ++guard) {
    const auto s = it.step();
    if (s.finished) return it.result();
    EXPECT_FALSE(s.aborted);
  }
  ADD_FAILURE() << "interpreter did not terminate";
  return 0;
}

// gtest (and the ctest names gtest_discover_tests derives) print this
// parameter as its raw bytes, so the struct must have no padding: a one-byte
// op followed by seven padding bytes named each case after stale stack bytes.
struct BinCase {
  BinCase(ir::Op op, std::int64_t a, std::int64_t b, std::int64_t want)
      : op(static_cast<std::uint64_t>(op)), a(a), b(b), want(want) {}
  std::uint64_t op;
  std::int64_t a, b, want;
};

class BinopSemantics : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinopSemantics, MatchesHostArithmetic) {
  const BinCase c = GetParam();
  ir::Module m;
  ir::FunctionBuilder b(m, "f", {nullptr, nullptr});
  b.ret(b.binop(static_cast<ir::Op>(c.op), b.param(0), b.param(1)));
  m.finalize();
  const auto got = run(b.function(), {static_cast<std::uint64_t>(c.a),
                                      static_cast<std::uint64_t>(c.b)});
  EXPECT_EQ(static_cast<std::int64_t>(got), c.want);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinopSemantics,
    ::testing::Values(
        BinCase{ir::Op::Add, 3, 4, 7}, BinCase{ir::Op::Add, -3, 1, -2},
        BinCase{ir::Op::Sub, 3, 10, -7}, BinCase{ir::Op::Mul, -4, 6, -24},
        BinCase{ir::Op::SDiv, -9, 2, -4}, BinCase{ir::Op::SRem, -9, 2, -1},
        BinCase{ir::Op::SDiv, 17, 5, 3}, BinCase{ir::Op::SRem, 17, 5, 2},
        BinCase{ir::Op::And, 0b1100, 0b1010, 0b1000},
        BinCase{ir::Op::Or, 0b1100, 0b1010, 0b1110},
        BinCase{ir::Op::Xor, 0b1100, 0b1010, 0b0110},
        BinCase{ir::Op::Shl, 3, 4, 48}, BinCase{ir::Op::LShr, 48, 4, 3},
        BinCase{ir::Op::CmpEq, 5, 5, 1}, BinCase{ir::Op::CmpEq, 5, 6, 0},
        BinCase{ir::Op::CmpNe, 5, 6, 1}, BinCase{ir::Op::CmpSLt, -1, 0, 1},
        BinCase{ir::Op::CmpSLe, 2, 2, 1}, BinCase{ir::Op::CmpSGt, 3, 2, 1},
        BinCase{ir::Op::CmpSGe, 1, 2, 0},
        BinCase{ir::Op::CmpULt, -1 /*max u64*/, 0, 0}));

TEST(Interp, LoopComputesTriangularNumber) {
  ir::Module m;
  ir::FunctionBuilder b(m, "tri", {nullptr});
  const ir::Reg i = b.var(b.const_i(0));
  const ir::Reg acc = b.var(b.const_i(0));
  b.while_([&] { return b.cmp_sle(i, b.param(0)); },
           [&] {
             b.assign(acc, b.add(acc, i));
             b.assign(i, b.add(i, b.const_i(1)));
           });
  b.ret(acc);
  m.finalize();
  EXPECT_EQ(run(b.function(), {10}), 55u);
  EXPECT_EQ(run(b.function(), {0}), 0u);
}

TEST(Interp, CallsPassArgsAndReturnValues) {
  ir::Module m;
  ir::FunctionBuilder callee(m, "sq", {nullptr});
  callee.ret(callee.mul(callee.param(0), callee.param(0)));
  ir::FunctionBuilder caller(m, "sumsq", {nullptr, nullptr});
  const ir::Reg a = caller.call(callee.function(), {caller.param(0)});
  const ir::Reg b2 = caller.call(callee.function(), {caller.param(1)});
  caller.ret(caller.add(a, b2));
  m.finalize();
  EXPECT_EQ(run(caller.function(), {3, 4}), 25u);
}

TEST(Interp, NestedCallsThreeDeep) {
  ir::Module m;
  ir::FunctionBuilder f3(m, "f3", {nullptr});
  f3.ret(f3.add(f3.param(0), f3.const_i(1)));
  ir::FunctionBuilder f2(m, "f2", {nullptr});
  f2.ret(f2.call(f3.function(), {f2.mul(f2.param(0), f2.const_i(2))}));
  ir::FunctionBuilder f1(m, "f1", {nullptr});
  f1.ret(f1.call(f2.function(), {f1.add(f1.param(0), f1.const_i(5))}));
  m.finalize();
  EXPECT_EQ(run(f1.function(), {10}), 31u);  // (10+5)*2+1
}

TEST(Interp, MemoryOpsRoundTripThroughEnv) {
  ir::Module m;
  ir::FunctionBuilder b(m, "memrw", {nullptr});
  b.store(b.param(0), b.const_i(0xBEEF), 8);
  b.ret(b.load(b.param(0), 8));
  m.finalize();
  EXPECT_EQ(run(b.function(), {0x8000}), 0xBEEFu);
}

TEST(Interp, GepComputesFieldAddresses) {
  ir::Module m;
  const ir::StructType* t = m.add_type(
      ir::make_struct("pair", {{"a", 0, 8, nullptr}, {"b", 0, 8, nullptr}}));
  ir::FunctionBuilder b(m, "setb", {t, nullptr});
  b.store_field(b.param(0), t, "b", b.param(1));
  b.ret(b.load_field(b.param(0), t, "b"));
  m.finalize();
  MapEnv env;
  EXPECT_EQ(run(b.function(), {0x9000, 123}, &env), 123u);
  EXPECT_EQ(env.mem[0x9008], 123u);  // field b lives at offset 8
}

TEST(Interp, GepIndexScalesByElementSize) {
  ir::Module m;
  const ir::StructType* arr = m.add_type(ir::make_array("a8", 8, 16, nullptr));
  ir::FunctionBuilder b(m, "setelem", {arr, nullptr, nullptr});
  b.store_elem(b.param(0), arr, b.param(1), b.param(2));
  b.ret(b.const_i(0));
  m.finalize();
  MapEnv env;
  run(b.function(), {0xA000, 5, 77}, &env);
  EXPECT_EQ(env.mem[0xA000 + 40], 77u);
}

TEST(Interp, AllocAndFreeGoThroughEnv) {
  ir::Module m;
  const ir::StructType* t =
      m.add_type(ir::make_struct("obj", {{"v", 0, 8, nullptr}}));
  ir::FunctionBuilder b(m, "churn", {});
  const ir::Reg p = b.alloc(t);
  b.store_field(p, t, "v", b.const_i(9));
  b.free_(p);
  b.ret(p);
  m.finalize();
  MapEnv env;
  const auto addr = run(b.function(), {}, &env);
  ASSERT_EQ(env.freed.size(), 1u);
  EXPECT_EQ(env.freed[0], addr);
}

TEST(Interp, AlpointRetriesThenProceeds) {
  ir::Module m;
  ir::FunctionBuilder b(m, "locked", {nullptr});
  ir::Instr alp;
  alp.op = ir::Op::AlPoint;
  alp.alp_id = 42;
  alp.a = b.param(0);
  b.insert_block()->instrs().push_back(alp);
  b.ret(b.const_i(1));
  m.finalize();
  MapEnv env;
  env.alp_retries_remaining = 3;
  Interp it(env);
  it.start(b.function(), std::vector<std::uint64_t>{0x1000});
  unsigned steps = 0;
  while (!it.step().finished) ++steps;
  ASSERT_EQ(env.alps_seen.size(), 1u);
  EXPECT_EQ(env.alps_seen[0], 42u);
  EXPECT_GE(steps, 4u);  // 3 spins + the successful execution
  // Spins do not retire instructions.
  EXPECT_EQ(it.alps_executed(), 1u);
}

TEST(Interp, InstrsExecutedCountsRetiredInstructions) {
  ir::Module m;
  ir::FunctionBuilder b(m, "three", {});
  b.ret(b.add(b.const_i(1), b.const_i(2)));
  m.finalize();
  MapEnv env;
  Interp it(env);
  it.start(b.function(), {});
  while (!it.step().finished) {
  }
  EXPECT_EQ(it.instrs_executed(), 4u);  // 2 consts, add, ret
}

// Decoding is a layout pass: one record per IR instruction in block order,
// carrying the IR opcode, with branch targets resolved to block starts.
// Multi-instruction builder patterns stay one record per instruction, such
// as the ConstI + Add + Mov + Br of `assign(i, add(i, const_i(1)))` that
// closes the loop body.
TEST(Decode, OneRecordPerInstructionInBlockOrder) {
  ir::Module m;
  ir::FunctionBuilder callee(m, "inc", {nullptr});
  callee.ret(callee.add(callee.param(0), callee.const_i(1)));
  ir::FunctionBuilder b(m, "loop", {nullptr, nullptr});
  const ir::Reg i = b.var(b.const_i(0));
  const ir::Reg acc = b.var(b.const_i(0));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] {
             b.assign(acc, b.xor_(acc, b.load(b.param(1), 8)));
             b.assign(acc, b.call(callee.function(), {acc}));
             b.assign(i, b.add(i, b.const_i(1)));
           });
  b.ret(acc);
  m.finalize();

  const ir::Function& f = *b.function();
  const ir::DecodedCode& dc = f.decoded();
  ASSERT_EQ(dc.code.size(), f.instr_count());
  ASSERT_EQ(dc.block_start.size(), f.blocks().size());
  std::unordered_map<const ir::BasicBlock*, std::uint32_t> start;
  for (std::size_t k = 0; k < f.blocks().size(); ++k)
    start.emplace(f.blocks()[k].get(), dc.block_start[k]);

  std::size_t idx = 0;
  unsigned boundaries = 0, branches = 0;
  for (const auto& blk : f.blocks()) {
    EXPECT_EQ(start.at(blk.get()), idx);
    for (const ir::Instr& ins : blk->instrs()) {
      const ir::DecodedInstr& d = dc.code[idx++];
      EXPECT_EQ(d.op, ins.op) << "instruction " << idx - 1;
      EXPECT_EQ(d.is_boundary(), ir::op_is_boundary(d.op));
      if (d.is_boundary()) {
        ASSERT_LT(d.t1, dc.ext.size());
        EXPECT_EQ(dc.ext[d.t1].pc, ins.pc);
        ++boundaries;
      }
      // Each target is the block_start entry of the IR target block.
      if (d.op == ir::Op::Br || d.op == ir::Op::CondBr) {
        EXPECT_EQ(d.t1, start.at(ins.t1));
        if (d.op == ir::Op::CondBr) {
          EXPECT_EQ(d.t2, start.at(ins.t2));
        }
        ++branches;
      }
    }
  }
  EXPECT_EQ(dc.ext.size(), boundaries);
  EXPECT_GE(boundaries, 3u);  // load, call, ret
  EXPECT_GE(branches, 3u);    // loop entry, back edge, exit test
  EXPECT_EQ(run(b.function(), {5, 0x8000}), 5u);  // memory reads as 0
}

TEST(InterpDeath, DivisionByZeroDies) {
  ir::Module m;
  ir::FunctionBuilder b(m, "divz", {nullptr});
  b.ret(b.sdiv(b.param(0), b.const_i(0)));
  m.finalize();
  MapEnv env;
  Interp it(env);
  it.start(b.function(), std::vector<std::uint64_t>{5});
  EXPECT_DEATH(
      {
        while (!it.step().finished) {
        }
      },
      "division by zero");
}

}  // namespace
}  // namespace st::interp
