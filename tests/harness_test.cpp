// Harness-level behaviour: scheme wiring, instrumentation overrides, op
// scaling, derived metrics, and the run knobs (options_from_env).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "test_util.hpp"
#include "workloads/harness.hpp"

namespace st::workloads {
namespace {

TEST(Harness, SchemeNamesAndInstrumentModes) {
  using runtime::Scheme;
  EXPECT_STREQ(runtime::scheme_name(Scheme::kBaseline), "HTM");
  EXPECT_STREQ(runtime::scheme_name(Scheme::kAddrOnly), "AddrOnly");
  EXPECT_STREQ(runtime::scheme_name(Scheme::kStaggered), "Staggered");
  EXPECT_STREQ(runtime::scheme_name(Scheme::kStaggeredSW), "Staggered+SW");
  EXPECT_EQ(runtime::instrument_mode_for(Scheme::kBaseline),
            stagger::InstrumentMode::kNone);
  EXPECT_EQ(runtime::instrument_mode_for(Scheme::kAddrOnly),
            stagger::InstrumentMode::kEntryOnly);
  EXPECT_EQ(runtime::instrument_mode_for(Scheme::kStaggered),
            stagger::InstrumentMode::kAnchors);
  EXPECT_EQ(runtime::instrument_mode_for(Scheme::kStaggeredSW),
            stagger::InstrumentMode::kAnchors);
}

constexpr const char* kRunKnobs[] = {
    "STAGTM_MAX_RETRIES", "STAGTM_STM",   "STAGTM_STM_RETRIES",
    "STAGTM_STM_ORECS",   "STAGTM_TRACE", "STAGTM_TRACE_CAP",
    "STAGTM_SCHED_MODE"};

void clear_run_knobs() {
  for (const char* k : kRunKnobs) unsetenv(k);
}

/// The RunOptions fields a run knob could reach, as one comparable string.
std::string knob_fields(const RunOptions& o) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "retries=%u stm=%d/%u/%u trace=%s/%zu %s",
                o.max_retries, o.stm.enabled, o.stm.retries, o.stm.orecs,
                o.trace.path.c_str(), o.trace.cap_per_core,
                o.sched.describe().c_str());
  return buf;
}

TEST(RunOptions, DefaultsIgnoreEnvironment) {
  clear_run_knobs();
  const RunOptions unset;
  RunOptions o;
  o.threads = 4;
  o.ops_scale = 0.05;
  const RunResult plain = run_workload("list-lo", o);

  const std::string path = testutil::tmp_path("defaults_ignore_env.trc");
  std::remove(path.c_str());
  ASSERT_EQ(setenv("STAGTM_MAX_RETRIES", "3", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM", "on", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE", path.c_str(), 1), 0);
  ASSERT_EQ(setenv("STAGTM_SCHED_MODE", "jitter", 1), 0);
  const RunOptions set;
  EXPECT_EQ(knob_fields(set), knob_fields(unset));
  RunOptions o2;  // constructed with every knob set
  o2.threads = 4;
  o2.ops_scale = 0.05;
  const RunResult r = run_workload("list-lo", o2);
  clear_run_knobs();
  EXPECT_EQ(testutil::sim_fingerprint(r), testutil::sim_fingerprint(plain));
  EXPECT_TRUE(r.trace_path.empty());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "a default run wrote " << path;
  if (f != nullptr) std::fclose(f);
}

TEST(RunOptions, OptionsFromEnvAppliesEachKnob) {
  clear_run_knobs();
  EXPECT_EQ(knob_fields(options_from_env()), knob_fields(RunOptions{}));
  ASSERT_EQ(setenv("STAGTM_MAX_RETRIES", "3", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM", "on", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM_RETRIES", "2", 1), 0);
  ASSERT_EQ(setenv("STAGTM_STM_ORECS", "64", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE", "/tmp/knobs.trc", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "1024", 1), 0);
  const RunOptions o = options_from_env();
  clear_run_knobs();
  EXPECT_EQ(knob_fields(o),
            "retries=3 stm=1/2/64 trace=/tmp/knobs.trc/1024 off");
}

TEST(Harness, OpsScaleControlsTotalOps) {
  RunOptions o;
  o.threads = 2;
  o.ops_scale = 0.02;
  const auto small = run_workload("ssca2", o);
  o.ops_scale = 0.04;
  const auto big = run_workload("ssca2", o);
  EXPECT_EQ(big.total_ops, 2 * small.total_ops);
}

TEST(Harness, ReportsSchedulerEvents) {
  RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  const auto fused = run_workload("list-hi", o);
  o.macrostep = false;
  const auto single = run_workload("list-hi", o);
  // Single-stepping makes every step, of at most one instruction, its own
  // event; run-ahead folds local steps into the event of the step before.
  EXPECT_EQ(fused.cycles, single.cycles);
  EXPECT_GT(fused.sched_events, 0u);
  EXPECT_GT(single.sched_events, 2 * fused.sched_events)
      << fused.sched_events << " vs " << single.sched_events;
  // An event is one or more step calls; single-stepped, exactly one.
  EXPECT_GE(fused.sched_steps, fused.sched_events);
  EXPECT_EQ(single.sched_steps, single.sched_events);
}

TEST(Harness, PhaseTimesSplitWallTime) {
  RunOptions o;
  o.threads = 4;
  o.ops_scale = 0.05;
  const auto r = run_workload("list-hi", o);
  const RunResult::PhaseMs& p = r.phase_ms;
  for (double ms : {p.build, p.compile, p.init, p.setup, p.simulate, p.verify})
    EXPECT_GE(ms, 0.0);
  // Every run builds a machine and simulates something.
  EXPECT_GT(p.init, 0.0);
  EXPECT_GT(p.simulate, 0.0);
  EXPECT_LE(p.build + p.compile + p.init + p.setup + p.simulate + p.verify,
            r.wall_ms);
}

TEST(Harness, InstrumentOverrideAllIncreasesAlpsExecuted) {
  RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 1;
  o.ops_scale = 0.05;
  const auto anchors = run_workload("list-hi", o);
  o.instrument_override = stagger::InstrumentMode::kAll;
  const auto naive = run_workload("list-hi", o);
  EXPECT_GT(naive.totals.alp_executed, anchors.totals.alp_executed);
  EXPECT_GE(naive.cycles, anchors.cycles);
}

TEST(Harness, EnergyChargesWaitingBelowActivePower) {
  RunResult r;
  r.totals.cycles_useful_tx = 1000;
  const double active_only = r.energy_estimate();
  r.totals.cycles_lock_wait = 1000;
  EXPECT_DOUBLE_EQ(r.energy_estimate(), active_only + 300.0);
  r.totals.cycles_backoff = 1000;
  EXPECT_DOUBLE_EQ(r.energy_estimate(), active_only + 300.0 + 200.0);
  r.totals.cycles_wasted_tx = 1000;  // wasted work burns full power
  EXPECT_DOUBLE_EQ(r.energy_estimate(), active_only + 1500.0);
}

TEST(Harness, StaggeredUsesLessEnergyThanBaselineOnContention) {
  RunOptions o;
  o.threads = 8;
  o.ops_scale = 0.2;
  const auto base = run_workload("memcached", o);
  o.scheme = runtime::Scheme::kStaggered;
  const auto stag = run_workload("memcached", o);
  EXPECT_LT(stag.energy_estimate() / stag.totals.commits,
            base.energy_estimate() / base.totals.commits);
}

TEST(Harness, LazyAndEagerDifferButBothVerify) {
  RunOptions o;
  o.threads = 4;
  o.ops_scale = 0.05;
  const auto eager = run_workload("kmeans", o);
  o.lazy_htm = true;
  const auto lazy = run_workload("kmeans", o);
  EXPECT_EQ(eager.totals.commits, lazy.totals.commits);
  EXPECT_NE(eager.cycles, lazy.cycles);  // different conflict timing
}

TEST(Harness, PcTagBitsReachTheSimulator) {
  RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 8;
  o.ops_scale = 0.1;
  o.pc_tag_bits = 4;  // heavy tag collisions
  const auto narrow = run_workload("list-hi", o);
  o.pc_tag_bits = 12;
  const auto wide = run_workload("list-hi", o);
  EXPECT_LE(narrow.anchor_accuracy(), wide.anchor_accuracy());
}

TEST(Harness, AdvisoryLockCountIsConfigurable) {
  RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 8;
  o.ops_scale = 0.1;
  o.num_advisory_locks = 1;  // one big lock: must still be correct
  const auto r = run_workload("list-hi", o);
  EXPECT_EQ(r.totals.commits, r.total_ops);
}

TEST(Harness, TxSchedRunsCorrectlyAndReducesAborts) {
  RunOptions o;
  o.threads = 8;
  o.ops_scale = 0.2;
  const auto base = run_workload("list-hi", o);
  o.scheme = runtime::Scheme::kTxSched;
  const auto sched = run_workload("list-hi", o);
  EXPECT_EQ(sched.totals.commits, sched.total_ops);
  EXPECT_LT(sched.aborts_per_commit(), base.aborts_per_commit());
}

TEST(Harness, StaggeringBeatsWholeTxnSchedulingOnPartialConflicts) {
  // memcached's conflicts sit at the end of the transaction (statistics),
  // so locking at the ALP should preserve more parallelism than locking
  // the whole transaction (§7's comparison).
  RunOptions o;
  o.threads = 16;
  o.ops_scale = 0.15;
  o.scheme = runtime::Scheme::kTxSched;
  const auto sched = run_workload("memcached", o);
  o.scheme = runtime::Scheme::kStaggered;
  const auto stag = run_workload("memcached", o);
  EXPECT_GT(stag.throughput(), sched.throughput());
}

}  // namespace
}  // namespace st::workloads
