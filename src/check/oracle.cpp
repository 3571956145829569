#include "check/oracle.hpp"

#include <cstdio>
#include <memory>
#include <vector>

#include "runtime/tx_executor.hpp"

namespace st::check {

namespace {

/// Drives one recorded commit through a TxExecutor to completion. Solo
/// execution always makes progress (no other core holds the glock or an
/// advisory lock forever), so machine.run() terminates; a transaction that
/// originally went irrevocable (e.g. capacity overflow) retries its way to
/// the now-uncontended glock exactly as the runtime would.
class OneOpTask final : public sim::CoreTask {
 public:
  OneOpTask(runtime::TxExecutor& exec, unsigned ab_id,
            std::vector<std::uint64_t> args)
      : exec_(exec) {
    exec_.start(ab_id, std::move(args));
  }

  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    if (done_) return 1;
    if (!exec_.finished()) return exec_.step(m.fuse_budget());
    result_ = exec_.take_result();
    done_ = true;
    return 1;
  }

  bool done() const override { return done_; }
  std::uint64_t result() const { return result_; }

 private:
  runtime::TxExecutor& exec_;
  std::uint64_t result_ = 0;
  bool done_ = false;
};

}  // namespace

OracleReport replay_serial(const std::string& workload,
                           const workloads::RunOptions& opt,
                           const workloads::RunResult& run) {
  OracleReport rep;
  if (run.commit_log == nullptr) {
    rep.divergence = "no commit log (run with RunOptions::checked)";
    return rep;
  }

  // Reference configuration: same machine, no recording, no backdoors. The
  // replay drives its own single-core tasks and installs no perturbation.
  workloads::RunOptions ref = opt;
  ref.checked = false;
  ref.unsafe_skip_subscription = false;

  auto wl = workloads::make_workload(workload);
  if (wl == nullptr) {
    rep.divergence = "unknown workload '" + workload + "'";
    return rep;
  }
  ir::Module m;
  wl->build_ir(m);
  const auto mode = ref.instrument_override.value_or(
      runtime::instrument_mode_for(ref.scheme));
  auto prog = stagger::compile(m, mode, ref.pc_tag_bits);
  const runtime::RuntimeConfig rt = workloads::make_runtime_config(ref);
  runtime::TxSystem sys(rt, prog);
  wl->setup(sys);

  std::vector<std::unique_ptr<runtime::TxExecutor>> execs(rt.cores);
  char buf[192];
  for (const runtime::CommitRecord& rec : *run.commit_log) {
    if (rec.core >= rt.cores) {
      std::snprintf(buf, sizeof buf, "commit #%zu: core %u out of range",
                    rep.replayed, static_cast<unsigned>(rec.core));
      rep.divergence = buf;
      return rep;
    }
    if (!execs[rec.core])
      execs[rec.core] =
          std::make_unique<runtime::TxExecutor>(sys, rec.core);
    auto task = std::make_unique<OneOpTask>(*execs[rec.core], rec.ab_id,
                                            rec.args);
    const OneOpTask* t = task.get();
    sys.machine().set_task(rec.core, std::move(task));
    sys.run();
    if (t->result() != rec.result) {
      std::snprintf(buf, sizeof buf,
                    "commit #%zu (core %u, ab %u, cycle %llu): recorded "
                    "result %llu, serial replay got %llu",
                    rep.replayed, static_cast<unsigned>(rec.core),
                    static_cast<unsigned>(rec.ab_id),
                    static_cast<unsigned long long>(rec.cycle),
                    static_cast<unsigned long long>(rec.result),
                    static_cast<unsigned long long>(t->result()));
      rep.divergence = buf;
      return rep;
    }
    ++rep.replayed;
  }

  const std::string inv = wl->check_invariants(sys);
  if (!inv.empty()) {
    rep.divergence = "replayed state violates invariants: " + inv;
    return rep;
  }
  rep.replay_digest = wl->state_digest(sys);
  if (run.state_digest != 0 && rep.replay_digest != run.state_digest) {
    std::snprintf(buf, sizeof buf,
                  "final state digest mismatch: concurrent run %016llx, "
                  "serial replay %016llx",
                  static_cast<unsigned long long>(run.state_digest),
                  static_cast<unsigned long long>(rep.replay_digest));
    rep.divergence = buf;
    return rep;
  }
  rep.ok = true;
  return rep;
}

}  // namespace st::check
