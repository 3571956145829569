// Differential tests for the parallel deterministic engine (DESIGN.md §13):
// sharding the event loop across host worker threads must never change a
// simulated result. Every test here compares complete runs — cycles, ops,
// the full per-core counter/histogram set (serialized through the metrics
// JSON writer so nothing is forgotten), the state digest, and the commit
// log byte-for-byte — between host_threads == 1 and parallel configurations.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "obs/metrics.hpp"
#include "workloads/harness.hpp"
#include "workloads/workload.hpp"

namespace st::workloads {
namespace {

/// Serializes everything simulated about a run into one comparable string.
/// Host-side fields (wall_ms, host_threads, par) are
/// deliberately excluded — they are allowed to differ.
std::string sim_fingerprint(const RunResult& r) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  std::fprintf(f, "workload=%s scheme=%s threads=%u cycles=%llu ops=%llu\n",
               r.workload.c_str(), r.scheme.c_str(), r.threads,
               static_cast<unsigned long long>(r.cycles),
               static_cast<unsigned long long>(r.total_ops));
  std::fprintf(f, "la=%.17g lp=%.17g dropped=%llu\n", r.conflict_addr_locality,
               r.conflict_pc_locality,
               static_cast<unsigned long long>(r.abort_trace_dropped));
  std::fprintf(f, "digest=%016llx invariant=[%s]\n",
               static_cast<unsigned long long>(r.state_digest),
               r.invariant_failure.c_str());
  obs::write_core_stats_json(f, r.totals);
  for (const auto& cs : r.per_core) obs::write_core_stats_json(f, cs);
  if (r.commit_log) {
    for (const auto& rec : *r.commit_log) {
      std::fprintf(f, "\nc=%llu core=%u ab=%u att=%u irr=%d res=%llx args=",
                   static_cast<unsigned long long>(rec.cycle), rec.core,
                   rec.ab_id, rec.attempts, rec.irrevocable,
                   static_cast<unsigned long long>(rec.result));
      for (std::uint64_t a : rec.args) std::fprintf(f, "%llx,",
                                                    static_cast<unsigned long long>(a));
    }
  }
  std::fclose(f);
  std::string s(buf, len);
  std::free(buf);
  return s;
}

RunOptions base_options() {
  RunOptions opt;
  opt.scheme = runtime::Scheme::kStaggered;
  opt.threads = 16;
  opt.ops_scale = 0.05;
  opt.checked = true;          // record commit log + digest
  opt.trace_path = "";         // tracing off regardless of environment
  opt.sched = check::SchedConfig{};  // deterministic schedule
  opt.macrostep = true;
  return opt;
}

/// Commit-log byte comparison across every registered workload: the serial
/// loop vs a 4-worker window engine must serialize identically.
TEST(ParallelMachine, AllWorkloadsBitIdenticalAtFourHostThreads) {
  for (const auto& [name, factory] : workload_registry()) {
    RunOptions opt = base_options();
    opt.host_threads = 1;
    const RunResult serial = run_workload(name, opt);
    ASSERT_NE(serial.commit_log, nullptr) << name;
    EXPECT_TRUE(serial.invariant_failure.empty())
        << name << ": " << serial.invariant_failure;
    opt.host_threads = 4;
    const RunResult par = run_workload(name, opt);
    EXPECT_EQ(par.host_threads, 4u) << name;
    EXPECT_EQ(sim_fingerprint(serial), sim_fingerprint(par)) << name;
  }
}

/// Randomized differential fuzz over the host-side configuration space:
/// worker count in {2, 4, 8}, eager vs lazy conflict detection,
/// macro-stepping, scheme, and seed. Fixed fuzz seed so failures
/// reproduce; each sample is checked against its own serial twin.
TEST(ParallelMachine, FuzzHostThreadsAcrossHtmModes) {
  const char* names[] = {"list-hi", "kmeans", "ssca2", "intruder", "vacation"};
  const runtime::Scheme schemes[] = {runtime::Scheme::kBaseline,
                                     runtime::Scheme::kStaggered,
                                     runtime::Scheme::kStaggeredSW};
  std::mt19937 rng(20260808);
  for (int i = 0; i < 10; ++i) {
    RunOptions opt = base_options();
    opt.scheme = schemes[rng() % 3];
    opt.lazy_htm = (rng() % 2) != 0;
    opt.macrostep = (rng() % 2) != 0;
    opt.seed = 1 + rng() % 5;
    const std::string name = names[rng() % 5];
    const unsigned workers = 1u << (1 + rng() % 3);  // 2, 4, 8

    opt.host_threads = 1;
    const RunResult serial = run_workload(name, opt);
    opt.host_threads = workers;
    const RunResult par = run_workload(name, opt);
    EXPECT_EQ(sim_fingerprint(serial), sim_fingerprint(par))
        << name << " workers=" << workers << " lazy=" << opt.lazy_htm
        << " macrostep=" << opt.macrostep << " seed=" << opt.seed;
  }
}

/// Schedule perturbation must force the serial path: the perturbation hooks
/// reorder steps in ways the window bound cannot see, so the machine runs
/// its serial perturbed loop (zero parallel windows) and still matches the
/// host_threads == 1 execution exactly.
TEST(ParallelMachine, PerturbedScheduleForcesSerialPath) {
  check::SchedConfig sched;
  sched.mode = check::SchedMode::kJitter;
  sched.seed = 11;

  RunOptions opt = base_options();
  opt.sched = sched;
  opt.host_threads = 1;
  const RunResult serial = run_workload("list-hi", opt);
  opt.host_threads = 8;
  const RunResult par = run_workload("list-hi", opt);
  EXPECT_EQ(par.par.windows, 0u)
      << "perturbed schedules must not take the window engine";
  EXPECT_EQ(sim_fingerprint(serial), sim_fingerprint(par));
}

/// Parallel windows do run (and are counted) on an unperturbed multi-core
/// machine with more than one host thread.
TEST(ParallelMachine, WindowCountersPopulated) {
  RunOptions opt = base_options();
  opt.host_threads = 4;
  const RunResult r = run_workload("kmeans", opt);
  EXPECT_GT(r.par.windows, 0u);
  EXPECT_GT(r.par.window_steps, 0u);
  EXPECT_GT(r.par.drain_steps, 0u);
  EXPECT_EQ(r.par.barrier_wait_ns.size(), 4u);
  EXPECT_EQ(r.par.window_cores.samples, r.par.windows);
  EXPECT_LE(r.par.inline_windows, r.par.windows);
  // Every interpreter instruction retires inside exactly one step call,
  // and every step call is either a serial drain step or a window-local
  // advance — so the work-weighted split must partition the run's total
  // instruction count exactly. A leak here would mean the engine stepped
  // a task outside both regimes (or double-counted a delta).
  EXPECT_GT(r.par.window_instrs, 0u);
  EXPECT_GT(r.par.drain_instrs, 0u);
  EXPECT_EQ(r.par.window_instrs + r.par.drain_instrs,
            r.totals.interp_instrs);
}

/// STAGTM_THREADS follows the strict env-knob contract: malformed or
/// out-of-range values terminate with exit code 2 and name the variable.
TEST(ParallelMachineDeathTest, BadStagtmThreadsExitsTwo) {
  EXPECT_EXIT(
      {
        setenv("STAGTM_THREADS", "0", 1);
        sim::Machine::default_host_threads();
      },
      ::testing::ExitedWithCode(2), "STAGTM_THREADS");
  EXPECT_EXIT(
      {
        setenv("STAGTM_THREADS", "257", 1);
        sim::Machine::default_host_threads();
      },
      ::testing::ExitedWithCode(2), "STAGTM_THREADS");
  EXPECT_EXIT(
      {
        setenv("STAGTM_THREADS", "lots", 1);
        sim::Machine::default_host_threads();
      },
      ::testing::ExitedWithCode(2), "STAGTM_THREADS");
}

}  // namespace
}  // namespace st::workloads
