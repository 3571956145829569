// Step-wise TxIR interpreter over pre-decoded code.
//
// Executes the flattened DecodedCode of a function (see ir/decode.hpp):
// each frame is a {code pointer, instruction index} pair, so the hot loop
// never chases std::list nodes. step() takes a cycle budget: a boundary
// instruction (memory access, alloc/free, ALPoint, call/ret — the only
// instructions through which cores interact) can only be the first
// instruction of a step, and runs of pure-register instructions after it
// are fused into the same step, whose cycle cost is the sum of the
// single-step costs, stopping before the next boundary or once the budget
// is spent. With budget == 1 (the default) every step retires exactly one
// instruction, as the original single-stepping interpreter did.
//
// All memory effects go through an ExecEnv, which the transaction executor
// implements in three flavours: SpecEnv (speculative HTM accesses), StmEnv
// (TL2 read/write-set accesses of the STM tier) and PlainEnv (irrevocable
// plain accesses under the global lock).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.hpp"
#include "sim/types.hpp"

namespace st::interp {

class ExecEnv {
 public:
  virtual ~ExecEnv() = default;

  struct Mem {
    std::uint64_t value = 0;
    sim::Cycle latency = 0;
    bool ok = true;  // false: the enclosing transaction aborted
  };
  virtual Mem load(sim::Addr a, unsigned size, std::uint32_t pc) = 0;
  virtual Mem store(sim::Addr a, std::uint64_t v, unsigned size,
                    std::uint32_t pc) = 0;
  virtual Mem nt_load(sim::Addr a, unsigned size) = 0;
  virtual Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) = 0;

  /// Allocation cost is charged by the env; `out` receives the address.
  /// `pc` is the allocating instruction (the allocation site recorded by
  /// the heap when provenance is on; cost-model-neutral otherwise).
  virtual Mem alloc(const ir::StructType* t, sim::Addr& out,
                    std::uint32_t pc) = 0;
  virtual void free_(sim::Addr a) = 0;

  struct AlpResult {
    sim::Cycle latency = 1;
    bool retry = false;  // re-execute the ALPoint next step (spinning)
    bool ok = true;      // false: transaction aborted while waiting
  };
  virtual AlpResult alpoint(std::uint32_t alp_id, sim::Addr data_addr,
                            std::uint32_t pc) = 0;
};

class Interp {
 public:
  explicit Interp(ExecEnv& env) : env_(env) {}

  void start(const ir::Function* f, std::span<const std::uint64_t> args);
  void reset();

  struct Step {
    sim::Cycle cycles = 1;
    bool finished = false;
    bool aborted = false;
  };
  /// Executes at least one instruction: the next one, boundary or not,
  /// then a fused run of pure-register instructions that continues while
  /// the next instruction is also pure and the accumulated cycle cost
  /// (the first instruction's included) stays below `budget`. The run is
  /// empty when a boundary finishes the block, aborts or spins (a retried
  /// ALPoint leaves ip on itself). Only the first instruction can touch
  /// shared state, and the caller runs the step at that instruction's
  /// turn; the rest reads and writes only this frame stack, so no other
  /// core can observe when it executes (sim::Machine::fuse_budget), which
  /// makes fused execution bit-identical to single-stepping. Every retired
  /// instruction *starts* strictly inside the budget (a multi-cycle
  /// instruction may finish past it, exactly as its atomic single-step
  /// event would have).
  Step step(sim::Cycle budget = 1);

  bool running() const { return depth_ > 0; }
  /// True when the next step() is guaranteed not to touch any shared
  /// simulator state: the next instruction is a pure register instruction,
  /// so the whole fused run (which stops before any boundary) stays inside
  /// this core's frame. The machine's run-ahead uses this to classify
  /// local vs synchronizing steps (sim/machine.hpp).
  bool next_is_pure() const {
    if (depth_ == 0) return false;
    const Frame& fr = frames_[depth_ - 1];
    return !fr.code[fr.ip].is_boundary();
  }

  /// One-instruction lookahead for the private-line local classification
  /// (runtime/tx_executor.cpp step_commutes): what would the next step()
  /// touch? Pure reports a non-boundary instruction (same predicate as
  /// next_is_pure); Load/Store additionally resolve the effective address
  /// and size from the current register file — valid because the peek runs
  /// exactly when the step is about to (register state is final). Calls
  /// and non-final Rets stay inside this core's frame stack; everything
  /// else (alloc/free, ALPoints, nontransactional ops, the final Ret) is
  /// reported as Other and always classifies as synchronizing.
  struct NextAccess {
    enum class Kind : std::uint8_t {
      kNone,      // not running
      kPure,      // non-boundary instruction
      kLoad,
      kStore,
      kCall,
      kRetInner,  // Ret that pops to a caller frame (depth > 1)
      kOther,
    };
    Kind kind = Kind::kNone;
    sim::Addr addr = 0;
    unsigned size = 0;
  };
  NextAccess next_access() const {
    NextAccess na;
    if (depth_ == 0) return na;
    const Frame& fr = frames_[depth_ - 1];
    const ir::DecodedInstr& ins = fr.code[fr.ip];
    if (!ins.is_boundary()) {
      na.kind = NextAccess::Kind::kPure;
      return na;
    }
    switch (ins.op) {
      case ir::Op::Load:
      case ir::Op::Store: {
        const ir::DecodedExt& ext = fr.ext[ins.t1];
        na.kind = ins.op == ir::Op::Load ? NextAccess::Kind::kLoad
                                         : NextAccess::Kind::kStore;
        na.addr = fr.regs[ins.a];
        na.size = ext.acc_size;
        break;
      }
      case ir::Op::Call:
        na.kind = NextAccess::Kind::kCall;
        break;
      case ir::Op::Ret:
        na.kind = depth_ > 1 ? NextAccess::Kind::kRetInner
                             : NextAccess::Kind::kOther;
        break;
      default:
        na.kind = NextAccess::Kind::kOther;
        break;
    }
    return na;
  }
  std::uint64_t result() const { return result_; }
  std::uint64_t instrs_executed() const { return instr_count_; }
  std::uint64_t alps_executed() const { return alp_count_; }

  /// Cost model constants (cycles).
  static constexpr sim::Cycle kAluCost = 1;
  static constexpr sim::Cycle kDivCost = 12;
  static constexpr sim::Cycle kFreeCost = 8;
  static constexpr sim::Cycle kCallCost = 2;
  static constexpr sim::Cycle kAllocCost = 24;
  static constexpr sim::Cycle kInactiveAlpCost = 1;  // test + untaken branch

 private:
  struct Frame {
    const ir::DecodedInstr* code = nullptr;  // flattened function body
    const ir::DecodedExt* ext = nullptr;     // boundary-only side table
    const ir::Reg* args = nullptr;           // pooled Call argument registers
    std::uint32_t ip = 0;
    ir::Reg ret_to = ir::kNoReg;
    std::vector<std::uint64_t> regs;
  };

  Step step_boundary(const ir::DecodedInstr& ins);

  /// Returns the frame at depth_ (reusing a pooled Frame's register storage
  /// when one exists) and increments depth_. May reallocate `frames_`.
  Frame& push_frame();

  ExecEnv& env_;
  // Frame pool: frames_[0..depth_) are live; slots above depth_ keep their
  // register vectors' capacity so repeated transactions do not reallocate.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  std::uint64_t result_ = 0;
  std::uint64_t instr_count_ = 0;
  std::uint64_t alp_count_ = 0;
};

}  // namespace st::interp
