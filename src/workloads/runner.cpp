#include "workloads/runner.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "common/env.hpp"

namespace st::workloads {

unsigned ExperimentRunner::default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<unsigned>(
      env_u64("STAGTM_JOBS", hw == 0 ? 1 : hw, 1, 256,
              "an integer in [1,256]"));
}

ExperimentRunner::ExperimentRunner(unsigned jobs) {
  const unsigned n = jobs == 0 ? default_jobs() : jobs;
  ST_CHECK_MSG(n >= 1 && n <= 256, "worker count out of range");
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ExperimentRunner::~ExperimentRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ExperimentRunner::submit(std::string workload,
                                     const RunOptions& opt) {
  return submit(ExperimentJob{std::move(workload), opt});
}

std::size_t ExperimentRunner::submit(ExperimentJob job) {
  std::size_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ST_CHECK_MSG(!stopping_, "submit on a shut-down ExperimentRunner");
    auto slot = std::make_unique<Slot>();
    slot->job = std::move(job);
    slots_.push_back(std::move(slot));
    id = slots_.size() - 1;
    queue_.push_back(id);
  }
  work_ready_.notify_one();
  return id;
}

std::size_t ExperimentRunner::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

const RunResult& ExperimentRunner::wait(std::size_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  ST_CHECK_MSG(id < slots_.size(), "wait on a job that was never submitted");
  Slot& s = *slots_[id];
  slot_done_.wait(lock, [&] { return s.state == State::kDone; });
  if (s.error) std::rethrow_exception(s.error);
  return s.result;
}

std::vector<RunResult> ExperimentRunner::wait_all() {
  const std::size_t n = submitted();
  // Drain everything before rethrowing so a failure cannot leave later
  // jobs running against a caller that already unwound.
  std::exception_ptr first_error;
  std::vector<RunResult> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out.push_back(wait(i));
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      out.emplace_back();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

void ExperimentRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and fully drained
    const std::size_t id = queue_.front();
    queue_.pop_front();
    Slot& s = *slots_[id];
    s.state = State::kRunning;
    lock.unlock();

    RunResult result;
    std::exception_ptr error;
    try {
      // Each job builds its own Workload instance: run_workload shares no
      // state across jobs, which is what makes parallel == serial.
      auto wl = make_workload(s.job.workload);
      if (wl == nullptr)
        throw std::runtime_error("unknown workload: " + s.job.workload);
      result = run_workload(*wl, s.job.options);
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    s.result = std::move(result);
    s.error = error;
    s.state = State::kDone;
    slot_done_.notify_all();
  }
}

std::vector<RunResult> run_batch(const std::vector<ExperimentJob>& batch,
                                 unsigned jobs) {
  ExperimentRunner runner(jobs);
  for (const ExperimentJob& j : batch) runner.submit(j);
  return runner.wait_all();
}

}  // namespace st::workloads
