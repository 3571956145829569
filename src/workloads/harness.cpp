#include "workloads/harness.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"
#include "common/env.hpp"
#include "obs/export.hpp"
#include "runtime/tx_executor.hpp"

namespace st::workloads {

namespace {

/// One simulated worker thread: interleaves non-transactional "think" work
/// with atomic blocks run through the TxExecutor.
class WorkloadThread final : public sim::CoreTask {
 public:
  WorkloadThread(runtime::TxSystem& sys, Workload& wl, unsigned thread,
                 std::uint64_t ops)
      : sys_(sys), wl_(wl), exec_(sys, thread), thread_(thread), ops_(ops) {}

  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    if (finished_) return 1;
    if (active_) {
      if (!exec_.finished()) return exec_.step(m.fuse_budget());
      wl_.on_result(thread_, done_ops_, exec_.take_result());
      active_ = false;
      ++done_ops_;
    }
    if (done_ops_ >= ops_) {
      finished_ = true;
      return 1;
    }
    Workload::Op op = wl_.next_op(sys_, thread_, done_ops_);
    // Host-dispatch publication channel: next_op runs in host code, so an
    // argument can carry a pointer another core minted into this core's
    // transaction without any simulated store ever moving it. A pointer
    // still private to ANOTHER core escapes here; a pointer private to
    // this core stays private (it never left the owner's domain).
    sim::PrivacyMap& priv = sys_.privacy();
    for (std::uint64_t a : op.args)
      if (priv.foreign_private(thread_, a)) priv.publish_value(thread_, a, 0);
    sys_.stats().core(thread_).cycles_nontx += op.think;
    exec_.start(op.ab_id, std::move(op.args));
    active_ = true;
    return op.think + 1;
  }

  bool done() const override { return finished_; }

  /// Local iff the executor's next step is. Think-time scheduling, op
  /// dispatch, and result collection all touch the workload/stats/RNG, so
  /// they stay synchronizing steps.
  bool next_step_local(const sim::Machine&, sim::CoreId) const override {
    return !finished_ && active_ && !exec_.finished() &&
           exec_.next_step_local();
  }

 private:
  runtime::TxSystem& sys_;
  Workload& wl_;
  runtime::TxExecutor exec_;
  unsigned thread_;
  std::uint64_t ops_;
  std::uint64_t done_ops_ = 0;
  bool active_ = false;
  bool finished_ = false;
};

}  // namespace

double RunResult::aborts_per_commit() const {
  return totals.commits == 0 ? 0.0
                             : static_cast<double>(totals.total_aborts()) /
                                   static_cast<double>(totals.commits);
}

double RunResult::wasted_over_useful() const {
  const auto useful = totals.cycles_useful_tx + totals.cycles_irrevocable;
  return useful == 0 ? 0.0
                     : static_cast<double>(totals.cycles_wasted_tx) /
                           static_cast<double>(useful);
}

double RunResult::pct_irrevocable() const {
  return totals.commits == 0
             ? 0.0
             : 100.0 * static_cast<double>(totals.irrevocable_entries) /
                   static_cast<double>(totals.commits);
}

double RunResult::pct_tm() const {
  const auto tm = totals.cycles_useful_tx + totals.cycles_wasted_tx +
                  totals.cycles_irrevocable + totals.cycles_lock_wait +
                  totals.cycles_backoff;
  const auto all = tm + totals.cycles_nontx;
  return all == 0 ? 0.0
                  : 100.0 * static_cast<double>(tm) / static_cast<double>(all);
}

double RunResult::anchor_accuracy() const {
  const auto n = totals.anchor_id_correct + totals.anchor_id_wrong;
  return n == 0 ? 1.0
                : static_cast<double>(totals.anchor_id_correct) /
                      static_cast<double>(n);
}

double RunResult::instrs_per_txn() const {
  return totals.commits == 0 ? 0.0
                             : static_cast<double>(totals.tx_instrs) /
                                   static_cast<double>(totals.commits);
}

double RunResult::alps_per_txn() const {
  return totals.commits == 0 ? 0.0
                             : static_cast<double>(totals.alp_executed) /
                                   static_cast<double>(totals.commits);
}

double RunResult::energy_estimate() const {
  const auto& t = totals;
  const double active = static_cast<double>(
      t.cycles_useful_tx + t.cycles_wasted_tx + t.cycles_irrevocable +
      t.cycles_nontx);
  return active + 0.3 * static_cast<double>(t.cycles_lock_wait) +
         0.2 * static_cast<double>(t.cycles_backoff);
}

double RunResult::host_minstr_per_s() const {
  if (wall_ms <= 0.0) return 0.0;
  return static_cast<double>(totals.interp_instrs) / (wall_ms * 1000.0);
}

runtime::RuntimeConfig make_runtime_config(const RunOptions& opt) {
  runtime::RuntimeConfig rt;
  rt.cores = opt.threads;
  rt.scheme = opt.scheme;
  rt.seed = opt.seed;
  rt.mem.pc_tag_bits = opt.pc_tag_bits;
  rt.mem.lazy_conflicts = opt.lazy_htm;
  rt.num_advisory_locks = opt.num_advisory_locks;
  rt.lock_timeout = opt.lock_timeout;
  rt.max_retries = opt.max_retries;
  rt.history_len = opt.history_len;
  rt.stm = opt.stm;
  rt.policy = opt.policy;
  rt.policy.addr_only = opt.scheme == runtime::Scheme::kAddrOnly;
  rt.macrostep = opt.macrostep;
  rt.record_commits = opt.checked;
  rt.unsafe_skip_subscription = opt.unsafe_skip_subscription;
  rt.trace = opt.trace;
  return rt;
}

void check_scale(const Workload& wl, double ops_scale, const char* knob) {
  if (static_cast<double>(wl.ops_per_thread()) * ops_scale >= 1) return;
  std::fprintf(stderr,
               "%s must be at least 1/%llu for %s (one op per thread), "
               "got %g\n",
               knob, static_cast<unsigned long long>(wl.ops_per_thread()),
               wl.name(), ops_scale);
  // _Exit, not exit: a bench sweep checks each job as it submits it, while
  // earlier jobs may still be running on the runner's threads, which must
  // not see static destructors run under them.
  std::fflush(nullptr);
  std::_Exit(2);
}

RunOptions options_from_env() {
  RunOptions o;
  o.max_retries = static_cast<unsigned>(
      env_u64("STAGTM_MAX_RETRIES", o.max_retries, 0, 100000,
              "an integer in [0,100000]"));
  o.stm = stm::StmConfig::from_env();
  o.trace = obs::TraceConfig::from_env();
  return o;
}

RunResult run_workload(Workload& wl, const RunOptions& opt) {
  ST_CHECK(opt.threads >= 1);
  RunResult r;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_start = Clock::now();
  Clock::time_point mark = wall_start;
  // Milliseconds since the previous lap (or the start), for phase_ms.
  const auto lap = [&mark] {
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double, std::milli> ms = now - mark;
    mark = now;
    return ms.count();
  };
  ir::Module m;
  wl.build_ir(m);
  r.phase_ms.build = lap();
  const auto mode = opt.instrument_override.value_or(
      runtime::instrument_mode_for(opt.scheme));
  auto prog = stagger::compile(m, mode, opt.pc_tag_bits);
  r.phase_ms.compile = lap();

  const runtime::RuntimeConfig rt = make_runtime_config(opt);
  const std::unique_ptr<sim::SchedPerturb> perturb =
      check::make_perturb(opt.sched);

  runtime::TxSystem sys(rt, prog);
  if (perturb != nullptr) sys.machine().set_perturb(perturb.get());
  r.phase_ms.init = lap();
  wl.setup(sys);
  r.phase_ms.setup = lap();

  const auto ops = static_cast<std::uint64_t>(
      static_cast<double>(wl.ops_per_thread()) * opt.ops_scale);
  ST_CHECK(ops >= 1);
  for (unsigned t = 0; t < opt.threads; ++t)
    sys.machine().set_task(
        t, std::make_unique<WorkloadThread>(sys, wl, t, ops));

  lap();  // task creation: in wall_ms only
  bool stalled = false;
  if (opt.checked) {
    // A corrupted structure can trap the simulated program in a loop that
    // never reaches another commit (e.g. a transaction walking a cyclic
    // list), so run in bounded slices and stop when one passes without a
    // single commit — every legitimate wait (backoff, lock timeout, glock
    // spin behind a progressing holder) resolves far sooner.
    constexpr sim::Cycle kStallSlice = 4'000'000;
    sim::Cycle end = 0;
    while (!sys.machine().all_done()) {
      const std::uint64_t commits_before = sys.stats().total().commits;
      end = sys.run(end + kStallSlice);
      if (!sys.machine().all_done() &&
          sys.stats().total().commits == commits_before) {
        stalled = true;
        break;
      }
    }
    r.cycles = end;
  } else {
    r.cycles = sys.run();
  }
  r.phase_ms.simulate = lap();
  if (opt.checked) {
    // Checker mode reports the violations that verify() would abort on.
    r.invariant_failure =
        stalled ? "no commit progress in 4000000 cycles (likely a "
                  "non-terminating corrupted execution)"
                : wl.check_invariants(sys);
    if (r.invariant_failure.empty() && sys.heap().invalid_frees() > 0)
      r.invariant_failure =
          "simulated program freed " +
          std::to_string(sys.heap().invalid_frees()) +
          " non-live block(s) (double free / wild free)";
    if (r.invariant_failure.empty()) r.state_digest = wl.state_digest(sys);
    if (runtime::CommitLog* log = sys.commit_log())
      r.commit_log = std::make_shared<runtime::CommitLog>(std::move(*log));
  } else {
    wl.verify(sys);
  }
  r.phase_ms.verify = lap();

  if (const obs::Observer* o = sys.observer()) {
    // Observer output is strictly a side channel: the notice goes to
    // stderr so bench stdout stays byte-identical with it on and off.
    const obs::TraceData t = obs::snapshot(*o);
    std::string err;
    if (!obs::export_trace(t, rt.trace.path, &err))
      std::fprintf(stderr, "STAGTM_TRACE: %s\n", err.c_str());
    else
      std::fprintf(stderr, "[trace: %s, %llu records, %llu dropped]\n",
                   rt.trace.path.c_str(),
                   static_cast<unsigned long long>(t.total_emitted()),
                   static_cast<unsigned long long>(t.dropped()));
    r.trace_path = rt.trace.path;
    r.prov = obs::summarize_prov(t);
  }

  r.workload = wl.name();
  r.scheme = runtime::scheme_name(opt.scheme);
  r.threads = opt.threads;
  r.total_ops = ops * opt.threads;
  r.totals = sys.stats().total();
  r.per_core.reserve(sys.stats().cores());
  for (unsigned c = 0; c < sys.stats().cores(); ++c)
    r.per_core.push_back(sys.stats().core(c));
  r.abort_trace_dropped = sys.stats().abort_trace_dropped();
  r.conflict_addr_locality = sys.stats().conflict_addr_locality();
  r.conflict_pc_locality = sys.stats().conflict_pc_locality();
  r.static_loads_stores = prog.loads_stores_analyzed;
  r.static_anchors = prog.anchors_selected;
  r.atomic_blocks = static_cast<unsigned>(m.atomic_blocks().size());
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - wall_start)
          .count();
  r.sched_events = sys.machine().events();
  r.sched_steps = sys.machine().steps();
  return r;
}

RunResult run_workload(const std::string& name, const RunOptions& opt) {
  auto wl = make_workload(name);
  ST_CHECK_MSG(wl != nullptr, "unknown workload");
  return run_workload(*wl, opt);
}

}  // namespace st::workloads
