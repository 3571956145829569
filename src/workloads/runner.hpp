// ExperimentRunner: a host-side thread pool for independent simulations.
//
// Every experiment in this repository is a self-contained discrete-event
// simulation (the TxSystem owns all of its state and every source of
// randomness flows through the per-run seed), so a sweep of N (workload,
// RunOptions) jobs parallelizes trivially across host cores. Each
// simulation itself runs on one host thread, so this pool is the only host
// concurrency in the simulator.
// The runner guarantees:
//   * results come back in submission order;
//   * a parallel batch is bit-identical to running the same jobs serially
//     (nothing is shared between jobs; see tests/runner_test.cpp);
//   * an exception in one job is captured and rethrown from wait() for that
//     job only — the pool keeps draining the rest.
// Worker count: constructor argument, else STAGTM_JOBS, else
// std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workloads/harness.hpp"

namespace st::workloads {

struct ExperimentJob {
  std::string workload;
  RunOptions options;
};

class ExperimentRunner {
 public:
  /// `jobs` == 0 selects default_jobs().
  explicit ExperimentRunner(unsigned jobs = 0);
  ~ExperimentRunner();  // drains all submitted work, then joins the workers
  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Enqueues one experiment; returns its id (== submission index).
  std::size_t submit(std::string workload, const RunOptions& opt);
  std::size_t submit(ExperimentJob job);

  /// Blocks until job `id` finished. Rethrows the job's exception if it
  /// failed. The reference stays valid for the runner's lifetime.
  const RunResult& wait(std::size_t id);

  /// Blocks until every submitted job finished; returns results in
  /// submission order. Rethrows the first failed job's exception (after all
  /// jobs have drained, so the pool is never left wedged).
  std::vector<RunResult> wait_all();

  std::size_t submitted() const;
  unsigned jobs() const { return static_cast<unsigned>(workers_.size()); }

  /// STAGTM_JOBS (strictly validated) or hardware_concurrency, min 1.
  static unsigned default_jobs();

 private:
  enum class State : std::uint8_t { kPending, kRunning, kDone };
  struct Slot {
    ExperimentJob job;
    RunResult result;
    std::exception_ptr error;
    State state = State::kPending;
  };

  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable slot_done_;
  std::deque<std::size_t> queue_;
  std::vector<std::unique_ptr<Slot>> slots_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Convenience: runs `batch` on a fresh pool, returns results in order.
std::vector<RunResult> run_batch(const std::vector<ExperimentJob>& batch,
                                 unsigned jobs = 0);

}  // namespace st::workloads
