#include <gtest/gtest.h>

#include <cstring>

#include "workloads/runner.hpp"

namespace st::workloads {
namespace {

RunOptions small_options(runtime::Scheme scheme) {
  RunOptions o;
  o.scheme = scheme;
  o.threads = 4;
  o.ops_scale = 0.05;
  return o;
}

// Every field of RunResult except wall_ms and phase_ms must match
// bit-for-bit; those are host time and legitimately differ between runs.
// sched_events and sched_steps are host-side too, but deterministic
// functions of the run like the simulated fields.
void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof a.totals), 0);
  EXPECT_EQ(a.conflict_addr_locality, b.conflict_addr_locality);
  EXPECT_EQ(a.conflict_pc_locality, b.conflict_pc_locality);
  EXPECT_EQ(a.static_loads_stores, b.static_loads_stores);
  EXPECT_EQ(a.static_anchors, b.static_anchors);
  EXPECT_EQ(a.atomic_blocks, b.atomic_blocks);
  EXPECT_EQ(a.sched_events, b.sched_events);
  EXPECT_EQ(a.sched_steps, b.sched_steps);
}

TEST(ExperimentRunner, ParallelMatchesSerialBitForBit) {
  std::vector<ExperimentJob> batch;
  for (const char* wl : {"list-hi", "kmeans"}) {
    batch.push_back({wl, small_options(runtime::Scheme::kBaseline)});
    batch.push_back({wl, small_options(runtime::Scheme::kStaggered)});
  }

  ExperimentRunner pool(4);
  for (const auto& job : batch) pool.submit(job);
  const std::vector<RunResult> parallel = pool.wait_all();

  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const RunResult serial =
        run_workload(batch[i].workload, batch[i].options);
    expect_same_run(parallel[i], serial);
  }
}

TEST(ExperimentRunner, SingleWorkerMatchesMultiWorker) {
  std::vector<ExperimentJob> batch;
  for (const char* wl : {"ssca2", "list-hi"})
    batch.push_back({wl, small_options(runtime::Scheme::kStaggered)});

  const std::vector<RunResult> one = run_batch(batch, 1);
  const std::vector<RunResult> four = run_batch(batch, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    expect_same_run(one[i], four[i]);
}

TEST(ExperimentRunner, ResultsComeBackInSubmissionOrder) {
  ExperimentRunner pool(4);
  // Mixed sizes so completion order almost certainly differs from
  // submission order.
  auto big = small_options(runtime::Scheme::kBaseline);
  big.ops_scale = 0.1;
  auto tiny = small_options(runtime::Scheme::kBaseline);
  tiny.ops_scale = 0.02;
  const std::size_t i0 = pool.submit("list-hi", big);
  const std::size_t i1 = pool.submit("ssca2", tiny);
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  const auto results = pool.wait_all();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].workload, "list-hi");
  EXPECT_EQ(results[1].workload, "ssca2");
}

TEST(ExperimentRunner, BadWorkloadThrowsWithoutDeadlock) {
  ExperimentRunner pool(2);
  const auto opts = small_options(runtime::Scheme::kBaseline);
  const std::size_t good0 = pool.submit("ssca2", opts);
  const std::size_t bad = pool.submit("no-such-workload", opts);
  const std::size_t good1 = pool.submit("ssca2", opts);

  EXPECT_THROW(pool.wait(bad), std::runtime_error);
  // The failure is confined to its own job: the others still complete.
  EXPECT_EQ(pool.wait(good0).workload, "ssca2");
  EXPECT_EQ(pool.wait(good1).workload, "ssca2");
  // wait_all reports the first error, after draining everything.
  EXPECT_THROW(pool.wait_all(), std::runtime_error);
}

TEST(ExperimentRunner, DestructorDrainsOutstandingJobs) {
  // Submitting and immediately destroying must not hang or crash even with
  // jobs still queued.
  ExperimentRunner pool(2);
  for (int i = 0; i < 4; ++i)
    pool.submit("ssca2", small_options(runtime::Scheme::kBaseline));
}

TEST(ExperimentRunner, DefaultJobsIsPositive) {
  EXPECT_GE(ExperimentRunner::default_jobs(), 1u);
  ExperimentRunner pool;  // jobs = 0 -> default
  EXPECT_GE(pool.jobs(), 1u);
}

}  // namespace
}  // namespace st::workloads
