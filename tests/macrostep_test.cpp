// Macro-stepping tests: fused pure-register interpreter runs and the
// machine's run-ahead through local steps.
//
// The load-bearing invariant: a fused execution is bit-identical to a
// single-stepped one, because cores interact only at a step's first
// instruction, which the scheduler runs at its (clock, id) turn, and no
// other core can observe the rest of the step or the local steps after it.
// Verified three ways: unit tests of the fused interpreter step, unit tests
// of the scheduler's run-ahead, and differential full-system runs of real
// workloads with fusion on vs off.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>
#include <utility>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "sim/machine.hpp"
#include "test_util.hpp"
#include "workloads/harness.hpp"
#include "workloads/workload.hpp"

namespace st {
namespace {

using testutil::sim_fingerprint;

// ---------------------------------------------------------------------------
// Fused interpreter semantics.
// ---------------------------------------------------------------------------

struct CountingEnv final : interp::ExecEnv {
  std::unordered_map<sim::Addr, std::uint64_t> mem;
  unsigned loads = 0;
  unsigned stores = 0;
  unsigned alp_spins = 0;    // ALPoint polls to fail before acquiring
  bool abort_loads = false;  // loads abort the transaction

  Mem load(sim::Addr a, unsigned, std::uint32_t) override {
    ++loads;
    return {mem[a & ~7ull], 2, !abort_loads};
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned, std::uint32_t) override {
    ++stores;
    mem[a & ~7ull] = v;
    return {0, 2, true};
  }
  Mem nt_load(sim::Addr a, unsigned size) override { return load(a, size, 0); }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    return store(a, v, size, 0);
  }
  Mem alloc(const ir::StructType*, sim::Addr& out, std::uint32_t) override {
    out = 0x100000;
    return {out, interp::Interp::kAllocCost, true};
  }
  void free_(sim::Addr) override {}
  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    if (alp_spins > 0) {
      --alp_spins;
      return {4, true, true};
    }
    return {1, false, true};
  }
};

/// sum(0..n-1) via a counted loop: 3 pure instructions of setup, then a
/// pure 5-instruction loop body, then a Ret boundary.
ir::Function* build_sum_loop(ir::Module& m) {
  ir::FunctionBuilder b(m, "sum", {nullptr});
  const ir::Reg i = b.var(b.const_i(0));
  const ir::Reg acc = b.var(b.const_i(0));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] {
             b.assign(acc, b.add(acc, i));
             b.assign(i, b.add(i, b.const_i(1)));
           });
  b.ret(acc);
  return b.function();
}

TEST(Macrostep, BudgetOneSingleSteps) {
  ir::Module m;
  ir::Function* f = build_sum_loop(m);
  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(f, std::vector<std::uint64_t>{8});
  unsigned steps = 0;
  while (!it.step(1).finished) ++steps;
  const std::uint64_t instrs1 = it.instrs_executed();
  EXPECT_EQ(it.result(), 28u);
  // budget 1 retires exactly one instruction per step (Ret is the +1):
  // even a decode-fused branch pair splits, because its second half
  // would start outside the budget.
  EXPECT_EQ(steps + 1, instrs1);
}

TEST(Macrostep, LargeBudgetFusesPureRunsSameResultAndCycles) {
  ir::Module m;
  ir::Function* f = build_sum_loop(m);
  m.finalize();
  CountingEnv env;

  // Reference: single-stepped, summing the per-step cycle costs.
  interp::Interp ref(env);
  ref.start(f, std::vector<std::uint64_t>{100});
  sim::Cycle ref_cycles = 0;
  unsigned ref_steps = 0;
  for (;;) {
    const auto s = ref.step(1);
    ref_cycles += s.cycles;
    ++ref_steps;
    if (s.finished) break;
  }

  // Fused: unbounded budget. The whole pure loop collapses into one step.
  interp::Interp fused(env);
  fused.start(f, std::vector<std::uint64_t>{100});
  sim::Cycle fused_cycles = 0;
  unsigned fused_steps = 0;
  for (;;) {
    const auto s = fused.step(1u << 20);
    fused_cycles += s.cycles;
    ++fused_steps;
    if (s.finished) break;
  }

  EXPECT_EQ(fused.result(), ref.result());
  EXPECT_EQ(fused.instrs_executed(), ref.instrs_executed());
  EXPECT_EQ(fused_cycles, ref_cycles);  // cost model is additive
  EXPECT_LT(fused_steps, ref_steps);    // and the fusion actually fused
  // The only boundary in this function is Ret; everything else fuses into
  // the step before it, so the whole run takes exactly 2 steps.
  EXPECT_EQ(fused_steps, 2u);
}

TEST(Macrostep, FusedRunStopsBeforeBoundary) {
  ir::Module m;
  ir::FunctionBuilder b(m, "f", {nullptr});
  // Pure setup, then a Store boundary, then more pure work.
  const ir::Reg v = b.var(b.add(b.param(0), b.const_i(1)));
  b.store(b.param(0), v, 8);
  b.ret(b.add(v, v));
  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(b.function(), std::vector<std::uint64_t>{0x2000});

  // Step 1: fuses the pure prefix, stops *before* the store.
  auto s = it.step(1u << 20);
  EXPECT_FALSE(s.finished);
  EXPECT_EQ(env.stores, 0u);
  // Step 2: the store, then the pure suffix after it, which stops before
  // the Ret boundary.
  s = it.step(1u << 20);
  EXPECT_FALSE(s.finished);
  EXPECT_EQ(env.stores, 1u);
  EXPECT_EQ(env.mem[0x2000], 0x2001u);
  EXPECT_FALSE(it.next_is_pure());
  // Step 3: the final Ret.
  s = it.step(1u << 20);
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(it.result(), 2 * 0x2001u);
}

// A boundary starts a step and the pure run after it joins the step: each
// kind below is followed by pure work and then the final Ret, so a large
// budget retires everything but the Ret in one step (two for a call: the
// Call step stops before the callee's Ret, whose step stops before the
// caller's), with the single-stepped cycle total.
TEST(Macrostep, BoundaryCarriesThePureRunAfterIt) {
  enum Kind { kLoad, kStore, kCall, kAlpoint };
  for (const Kind kind : {kLoad, kStore, kCall, kAlpoint}) {
    ir::Module m;
    ir::Function* callee = nullptr;
    if (kind == kCall) {
      ir::FunctionBuilder cb(m, "callee", {nullptr});
      cb.ret(cb.mul(cb.add(cb.param(0), cb.const_i(3)), cb.param(0)));
      callee = cb.function();
    }
    ir::FunctionBuilder b(m, "f", {nullptr});
    ir::Reg v = b.param(0);
    if (kind == kLoad) v = b.load(b.param(0), 8);
    if (kind == kStore) b.store(b.param(0), b.param(0), 8);
    if (kind == kCall) v = b.call(callee, {b.param(0)});
    if (kind == kAlpoint) {
      ir::Instr alp;
      alp.op = ir::Op::AlPoint;
      alp.alp_id = 1;
      alp.a = b.param(0);
      b.insert_block()->instrs().push_back(alp);
    }
    b.ret(b.xor_(b.add(v, b.const_i(5)), b.const_i(9)));
    m.finalize();

    CountingEnv env;
    env.mem[0x3000] = 11;
    interp::Interp ref(env);
    ref.start(b.function(), std::vector<std::uint64_t>{0x3000});
    sim::Cycle ref_cycles = 0;
    for (bool fin = false; !fin;) {
      const auto s = ref.step(1);
      ref_cycles += s.cycles;
      fin = s.finished;
    }

    interp::Interp it(env);
    it.start(b.function(), std::vector<std::uint64_t>{0x3000});
    sim::Cycle cycles = 0;
    const unsigned carrying_steps = kind == kCall ? 2 : 1;
    for (unsigned i = 0; i < carrying_steps; ++i) {
      const auto s = it.step(1u << 20);
      EXPECT_FALSE(s.finished) << kind;
      cycles += s.cycles;
    }
    // Only the final Ret is left, and it ends the block.
    EXPECT_EQ(it.instrs_executed() + 1, ref.instrs_executed()) << kind;
    const auto s = it.step(1u << 20);
    EXPECT_TRUE(s.finished) << kind;
    EXPECT_EQ(it.instrs_executed(), ref.instrs_executed()) << kind;
    EXPECT_EQ(cycles + s.cycles, ref_cycles) << kind;
    EXPECT_EQ(it.result(), ref.result()) << kind;
  }
}

// An ALPoint spin, an aborted access, a boundary that uses up the budget,
// and budget 1 each end the step at the boundary: the pure run after it
// does not start.
TEST(Macrostep, StepsThatEndAtTheirBoundary) {
  ir::Module m;
  ir::FunctionBuilder b(m, "f", {nullptr});
  ir::Instr alp;
  alp.op = ir::Op::AlPoint;
  alp.alp_id = 1;
  alp.a = b.param(0);
  b.insert_block()->instrs().push_back(alp);
  const ir::Reg v = b.load(b.param(0), 8);
  b.ret(b.add(v, b.const_i(1)));
  m.finalize();

  CountingEnv env;
  env.alp_spins = 1;
  interp::Interp it(env);
  it.start(b.function(), std::vector<std::uint64_t>{0x3000});
  // The spin leaves ip on the ALPoint and retires nothing.
  auto s = it.step(1u << 20);
  EXPECT_EQ(s.cycles, 4u);
  EXPECT_EQ(it.instrs_executed(), 0u);
  EXPECT_EQ(it.next_access().kind, interp::Interp::NextAccess::Kind::kOther);
  // The acquiring ALPoint stops before the Load, a boundary; the Load's
  // own latency (2) meets budget 2, so its step ends after it.
  s = it.step(1u << 20);
  EXPECT_EQ(it.instrs_executed(), 1u);
  s = it.step(2);
  EXPECT_EQ(s.cycles, 2u);
  EXPECT_EQ(it.instrs_executed(), 2u);
  EXPECT_TRUE(it.next_is_pure());

  // An aborted load retires nothing and ends the step.
  env.abort_loads = true;
  it.start(b.function(), std::vector<std::uint64_t>{0x3000});
  it.step(1u << 20);  // the ALPoint (no spins left)
  EXPECT_EQ(it.instrs_executed(), 1u);
  s = it.step(1u << 20);
  EXPECT_TRUE(s.aborted);
  EXPECT_EQ(it.instrs_executed(), 1u);

  // Budget 1: the load alone, then one pure instruction per step.
  env.abort_loads = false;
  it.start(b.function(), std::vector<std::uint64_t>{0x3000});
  it.step(1);
  s = it.step(1);
  EXPECT_EQ(s.cycles, 2u);
  EXPECT_EQ(it.instrs_executed(), 2u);
  it.step(1);
  EXPECT_EQ(it.instrs_executed(), 3u);
}

TEST(Macrostep, BudgetCapsFusedCycleCost) {
  ir::Module m;
  ir::Function* f = build_sum_loop(m);
  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(f, std::vector<std::uint64_t>{1000});
  // Every fused step must consume at least 1 and at most `budget` cycles.
  for (;;) {
    const auto s = it.step(7);
    EXPECT_GE(s.cycles, 1u);
    if (s.finished) break;
    EXPECT_LE(s.cycles, 7u);
  }
  EXPECT_EQ(it.result(), 499500u);
}

// Budget slicing must be invisible: any budget cuts the fused pure-register
// runs at different instructions, and the result, retired-instruction
// count, and total cycle cost must all match the budget-1 single-stepped
// reference.
TEST(Macrostep, BudgetSweepIsInvariant) {
  ir::Module m;
  ir::FunctionBuilder b(m, "mix", {nullptr});
  // Loop bodies of cost-1 ALU runs (literal operands, result-copying Movs,
  // the closing branch) that budgets 2..12 split at every offset.
  const ir::Reg i = b.var(b.const_i(0));
  const ir::Reg acc = b.var(b.const_i(7));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] {
             b.assign(acc, b.xor_(acc, b.const_i(0x5a)));
             b.assign(acc, b.add(acc, b.and_(i, b.const_i(3))));
             b.assign(i, b.add(i, b.const_i(1)));
           });
  b.ret(acc);
  ir::Function* f = b.function();
  m.finalize();

  CountingEnv env;
  interp::Interp ref(env);
  ref.start(f, std::vector<std::uint64_t>{50});
  sim::Cycle ref_cycles = 0;
  for (;;) {
    const auto s = ref.step(1);
    ref_cycles += s.cycles;
    if (s.finished) break;
  }

  for (sim::Cycle budget = 2; budget <= 12; ++budget) {
    interp::Interp it(env);
    it.start(f, std::vector<std::uint64_t>{50});
    sim::Cycle cycles = 0;
    for (;;) {
      const auto s = it.step(budget);
      cycles += s.cycles;
      if (s.finished) break;
    }
    EXPECT_EQ(it.result(), ref.result()) << "budget " << budget;
    EXPECT_EQ(it.instrs_executed(), ref.instrs_executed())
        << "budget " << budget;
    EXPECT_EQ(cycles, ref_cycles) << "budget " << budget;
  }
}

// The interpreter must reject a call that passes more arguments than the
// callee has registers (OOB write into callee.regs otherwise). Hand-built
// IR, since the builder cannot express this and the verifier now rejects it.
TEST(MacrostepDeath, CallWithTooManyArgsIsRejected) {
  ir::Module m;
  ir::Function* callee = m.add_function("callee", {});  // 0 params, 0 regs
  callee->add_block("entry");
  ir::Instr ret;
  ret.op = ir::Op::Ret;
  callee->entry()->instrs().push_back(ret);

  ir::Function* caller = m.add_function("caller", {nullptr});
  caller->add_block("entry");
  ir::Instr call;
  call.op = ir::Op::Call;
  call.callee = callee;
  call.args = {0};  // one argument to a register-less callee
  caller->entry()->instrs().push_back(call);
  caller->entry()->instrs().push_back(ret);
  m.finalize();

  CountingEnv env;
  interp::Interp it(env);
  it.start(caller, std::vector<std::uint64_t>{42});
  EXPECT_DEATH(it.step(), "more arguments than the callee has registers");
}

// ---------------------------------------------------------------------------
// Scheduler run-ahead.
// ---------------------------------------------------------------------------

/// Runs `pattern` one character per step, each costing `cost` cycles: 'L'
/// is a local step, 'S' a synchronizing one, and 'P' a synchronizing poll
/// that parks through `polls` further polls `cost` apart. Records the
/// budget the machine granted at each step, the (core, clock) at which each
/// step ran, and how often the machine asked for a step's classification.
struct PatternTask final : sim::CoreTask {
  using Log = std::vector<std::pair<sim::CoreId, sim::Cycle>>;
  PatternTask(std::string pattern, sim::Cycle cost,
              std::vector<sim::Cycle>* budgets, Log* log = nullptr,
              sim::Cycle polls = 0)
      : pattern_(std::move(pattern)),
        cost_(cost),
        budgets_(budgets),
        log_(log),
        polls_(polls) {}

  sim::Cycle step(sim::Machine& m, sim::CoreId core) override {
    budgets_->push_back(m.fuse_budget());
    if (log_ != nullptr) log_->emplace_back(core, m.core_clock(core));
    if (pattern_[next_++] == 'P')
      m.park(core, m.core_clock(core) + cost_, cost_, polls_);
    return cost_;
  }
  bool done() const override { return next_ == pattern_.size(); }
  bool next_step_local(const sim::Machine&, sim::CoreId) const override {
    ++classified;
    return !done() && pattern_[next_] == 'L';
  }

  std::string pattern_;
  sim::Cycle cost_;
  std::vector<sim::Cycle>* budgets_;
  Log* log_;
  sim::Cycle polls_;
  std::size_t next_ = 0;
  mutable std::size_t classified = 0;
};

TEST(Macrostep, RunAheadPassesEarlierCompetitor) {
  sim::Machine m(2);
  m.set_step_fusion(true);
  std::vector<sim::Cycle> b0, b1;
  PatternTask::Log log;
  // Core 0 only synchronizes (cost 3). Core 1's first two steps are local
  // (cost 5), then it synchronizes.
  m.set_task(0, std::make_unique<PatternTask>("SSSS", 3, &b0, &log));
  m.set_task(1, std::make_unique<PatternTask>("LLSS", 5, &b1, &log));
  m.run(1000);
  // t=0: core 0 wins the id tie and steps once. Core 1 then pops at t=0
  // and runs ahead through both local steps (t=0, t=5) in one event —
  // past core 0, whose next event is at t=3 — and is requeued at t=10,
  // where its synchronizing steps interleave with core 0 by clock again.
  const PatternTask::Log want = {{0, 0}, {1, 0}, {1, 5}, {0, 3},
                                 {0, 6}, {0, 9}, {1, 10}, {1, 15}};
  EXPECT_EQ(log, want);
  // Every step gets the distance to max_cycles: after a step's first
  // instruction, nothing in it is observable by other cores.
  EXPECT_EQ(b0, (std::vector<sim::Cycle>{1000, 997, 994, 991}));
  EXPECT_EQ(b1, (std::vector<sim::Cycle>{1000, 995, 990, 985}));
}

TEST(Macrostep, FusionDisabledPinsBudgetToOne) {
  sim::Machine m(2);
  m.set_step_fusion(false);
  std::vector<sim::Cycle> b0, b1;
  m.set_task(0, std::make_unique<PatternTask>("LLL", 10, &b0));
  m.set_task(1, std::make_unique<PatternTask>("LLLLL", 3, &b1));
  m.run();
  for (sim::Cycle c : b0) EXPECT_EQ(c, 1u);
  for (sim::Cycle c : b1) EXPECT_EQ(c, 1u);
}

TEST(Macrostep, SoloCoreGetsUnboundedBudget) {
  sim::Machine m(1);
  m.set_step_fusion(true);
  std::vector<sim::Cycle> b;
  m.set_task(0, std::make_unique<PatternTask>("LL", 5, &b));
  m.run(1000);
  ASSERT_EQ(b.size(), 2u);
  // A local step is bounded only by max_cycles.
  EXPECT_EQ(b[0], 1000u);
  EXPECT_EQ(b[1], 995u);
}

TEST(Macrostep, SyncStepCarriesItsLocalTail) {
  sim::Machine m(2);
  std::vector<sim::Cycle> b0, b1;
  PatternTask::Log log;
  m.set_task(0, std::make_unique<PatternTask>("SSSS", 3, &b0, &log));
  m.set_task(1, std::make_unique<PatternTask>("SLSL", 5, &b1, &log));
  m.run(1000);
  // Core 1's synchronizing step at t=0 carries the local step after it in
  // the same event: that step runs at t=5, ahead of core 0's pending step
  // at t=3. Core 1's next synchronizing step waits for its turn at t=10.
  const PatternTask::Log want = {{0, 0}, {1, 0}, {1, 5}, {0, 3},
                                 {0, 6}, {0, 9}, {1, 10}, {1, 15}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(b1, (std::vector<sim::Cycle>{1000, 995, 990, 985}));
  EXPECT_EQ(m.events(), 6u);  // core 0's four steps, core 1's two pairs
  EXPECT_EQ(m.steps(), 8u);
}

TEST(Macrostep, ClassifiesEachStepOnce) {
  const std::string patterns[] = {"SLLSLSSL", "LLSSLLLS", "SSLLLLSL"};
  for (const bool fusion : {true, false}) {
    sim::Machine m(3);
    m.set_step_fusion(fusion);
    std::vector<sim::Cycle> budgets[3];
    PatternTask* tasks[3];
    for (sim::CoreId c = 0; c < 3; ++c) {
      auto t = std::make_unique<PatternTask>(patterns[c], 3 + 2 * c,
                                             &budgets[c]);
      tasks[c] = t.get();
      m.set_task(c, std::move(t));
    }
    // Stop at a horizon inside a local tail, then finish the run.
    m.run(20);
    m.run();
    std::size_t steps = 0;
    for (sim::CoreId c = 0; c < 3; ++c) {
      ASSERT_TRUE(tasks[c]->done());
      // A pop never classifies: every step but the first is asked about
      // once, after the step before it ran, except the one after the step
      // that reached the horizon.
      EXPECT_EQ(tasks[c]->classified, fusion ? patterns[c].size() - 2 : 0u)
          << "core " << c;
      steps += patterns[c].size();
    }
    EXPECT_EQ(m.events() < steps, fusion);
    EXPECT_EQ(m.steps(), steps);
  }
}

TEST(Macrostep, ParkingPollEndsItsEvent) {
  sim::Machine m(1);
  std::vector<sim::Cycle> b;
  PatternTask::Log log;
  auto task = std::make_unique<PatternTask>("PL", 10, &b, &log, 3);
  PatternTask* t = task.get();
  m.set_task(0, std::move(task));
  m.run(1000);
  // The poll at t=0 parks through the slots at 10, 20 and 30: the local
  // step after it runs at the wake slot in an event of its own. The park
  // ends the first event before any classification, a pop never
  // classifies, and the last step finishes the task.
  EXPECT_EQ(log, (PatternTask::Log{{0, 0}, {0, 40}}));
  EXPECT_EQ(b, (std::vector<sim::Cycle>{1000, 960}));
  EXPECT_EQ(m.events(), 2u);
  EXPECT_EQ(t->classified, 0u);
}

TEST(Macrostep, HorizonStopEndsItsEvent) {
  sim::Machine m(1);
  std::vector<sim::Cycle> b;
  PatternTask::Log log;
  m.set_task(0, std::make_unique<PatternTask>("SLLL", 10, &b, &log));
  // The local tail stops where the clock reaches the horizon.
  m.run(20);
  EXPECT_EQ(log, (PatternTask::Log{{0, 0}, {0, 10}}));
  EXPECT_EQ(m.core_clock(0), 20u);
  EXPECT_EQ(m.events(), 1u);
  // Resuming pops the core again, and the rest of the tail is one event.
  m.run(1000);
  EXPECT_EQ(log, (PatternTask::Log{{0, 0}, {0, 10}, {0, 20}, {0, 30}}));
  EXPECT_EQ(b, (std::vector<sim::Cycle>{20, 10, 980, 970}));
  EXPECT_EQ(m.events(), 2u);
}

// ---------------------------------------------------------------------------
// Differential full-system runs: fusion must not change any simulated
// number, on every workload, with real contention, aborts, and advisory
// locks. Each row compares a run-ahead run against the single-stepped
// reference (macrostep off: every instruction its own scheduler event).
// ---------------------------------------------------------------------------

workloads::RunOptions differential_options(runtime::Scheme scheme) {
  workloads::RunOptions opt;
  opt.scheme = scheme;
  opt.threads = 16;
  opt.ops_scale = 0.05;
  opt.checked = true;  // record commit log + digest
  return opt;
}

/// Runs `workload` with fusion on and off and compares the fingerprints.
void expect_identical_runs(const std::string& workload,
                           workloads::RunOptions on, const std::string& what) {
  on.macrostep = true;
  workloads::RunOptions off = on;
  off.macrostep = false;
  const auto a = workloads::run_workload(workload, on);
  const auto b = workloads::run_workload(workload, off);
  EXPECT_NE(a.commit_log, nullptr) << what;
  EXPECT_TRUE(a.invariant_failure.empty()) << what << ": "
                                           << a.invariant_failure;
  EXPECT_EQ(sim_fingerprint(a), sim_fingerprint(b)) << what;
}

/// Randomized differential fuzz: scheme x eager/lazy conflict detection x
/// seed, each sample checked against its own single-stepped twin. Fixed
/// fuzz seed so failures reproduce.
TEST(Macrostep, FuzzFusionAcrossHtmModes) {
  const char* names[] = {"list-hi", "kmeans", "ssca2", "intruder", "vacation"};
  const runtime::Scheme schemes[] = {runtime::Scheme::kBaseline,
                                     runtime::Scheme::kStaggered,
                                     runtime::Scheme::kStaggeredSW};
  std::mt19937 rng(20260808);
  for (int i = 0; i < 10; ++i) {
    workloads::RunOptions opt = differential_options(schemes[rng() % 3]);
    opt.lazy_htm = (rng() % 2) != 0;
    opt.seed = 1 + rng() % 5;
    const std::string name = names[rng() % 5];
    expect_identical_runs(name, opt,
                          name + " scheme=" + runtime::scheme_name(opt.scheme) +
                              " lazy=" + std::to_string(opt.lazy_htm) +
                              " seed=" + std::to_string(opt.seed));
  }
}

/// Schedule perturbation forces single-stepping: the hook reorders steps in
/// ways the run-ahead argument cannot see, so the machine ignores fusion
/// and the two runs are the same execution.
TEST(Macrostep, PerturbedScheduleForcesSingleStep) {
  workloads::RunOptions opt =
      differential_options(runtime::Scheme::kStaggered);
  check::SchedConfig sched;
  sched.mode = check::SchedMode::kJitter;
  sched.seed = 11;
  opt.sched = sched;
  expect_identical_runs("list-hi", opt, "list-hi jitter seed=11");
}

struct DifferentialCase {
  const char* test_name;
  const char* workload;
  runtime::Scheme scheme;
  unsigned threads = 16;
  double ops_scale = 0.05;
  bool stm = false;  // STM tier on, with max_retries 2 so blocks reach it
};

constexpr DifferentialCase kDifferentialCases[] = {
    {"Ssca2Baseline", "ssca2", runtime::Scheme::kBaseline},
    {"Ssca2Staggered", "ssca2", runtime::Scheme::kStaggered},
    {"ListHiStaggered", "list-hi", runtime::Scheme::kStaggered},
    {"ListHiStaggeredSW", "list-hi", runtime::Scheme::kStaggeredSW},
    {"ListLo", "list-lo", runtime::Scheme::kStaggered},
    {"Genome", "genome", runtime::Scheme::kStaggered},
    {"Intruder", "intruder", runtime::Scheme::kStaggered},
    {"Kmeans", "kmeans", runtime::Scheme::kStaggered},
    {"Labyrinth", "labyrinth", runtime::Scheme::kStaggered},
    {"Vacation", "vacation", runtime::Scheme::kStaggeredSW},
    {"Tsp", "tsp", runtime::Scheme::kStaggered},
    {"Memcached", "memcached", runtime::Scheme::kStaggered},
    // The parked waits (DESIGN.md §13): the kTxSched lock, the glock CAS
    // and the glock-free wait of the STM tier, and the ALP wait at 64 cores.
    {"ListHiTxSched", "list-hi", runtime::Scheme::kTxSched},
    {"IntruderHybrid", "intruder", runtime::Scheme::kBaseline, 16, 0.05, true},
    {"ListHi64Cores", "list-hi", runtime::Scheme::kStaggered, 64, 0.01},
};

class MacrostepDifferential : public ::testing::Test {
 public:
  explicit MacrostepDifferential(const DifferentialCase& c) : c_(c) {}
  void TestBody() override {
    workloads::RunOptions opt = differential_options(c_.scheme);
    opt.threads = c_.threads;
    opt.ops_scale = c_.ops_scale;
    if (c_.stm) {
      opt.stm = stm::StmConfig{};
      opt.stm.enabled = true;
      opt.max_retries = 2;
    }
    expect_identical_runs(c_.workload, opt, c_.test_name);
  }

 private:
  DifferentialCase c_;
};

// One named test per table row (MacrostepDifferential.<test_name>), so ctest
// runs and reports each workload separately.
const bool kDifferentialRegistered = [] {
  for (const DifferentialCase& c : kDifferentialCases) {
    ::testing::RegisterTest(
        "MacrostepDifferential", c.test_name, nullptr, nullptr, __FILE__,
        __LINE__, [c]() -> MacrostepDifferential* {
          return new MacrostepDifferential(c);
        });
  }
  return true;
}();

}  // namespace
}  // namespace st
