// Shared fixtures: build a small TxIR module, compile it under a scheme,
// stand up a TxSystem, and run atomic blocks to completion.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/tx_executor.hpp"
#include "workloads/harness.hpp"

namespace st::testutil {

/// Owns one compiled module + machine for direct executor-level tests.
struct MiniSystem {
  ir::Module module;
  stagger::CompiledProgram prog;
  std::unique_ptr<runtime::TxSystem> sys;
  /// Optional runtime overrides, set before boot(): the STM fallback tier
  /// (off by default, as in production) and the HTM retry budget.
  stm::StmConfig stm;
  unsigned max_retries = 10;
  /// The observer, TxSystem::observer() (in memory only: a TxSystem never
  /// writes it to `trace.path`).
  obs::TraceConfig trace;

  /// Compile (after the caller built IR into `module`) and boot a machine.
  void boot(runtime::Scheme scheme = runtime::Scheme::kBaseline,
            unsigned threads = 1, std::uint64_t seed = 7) {
    prog = stagger::compile(module, runtime::instrument_mode_for(scheme), 12);
    runtime::RuntimeConfig rt;
    rt.cores = threads;
    rt.scheme = scheme;
    rt.seed = seed;
    rt.policy.addr_only = scheme == runtime::Scheme::kAddrOnly;
    rt.stm = stm;
    rt.max_retries = max_retries;
    rt.trace = trace;
    sys = std::make_unique<runtime::TxSystem>(rt, prog);
  }

  /// Runs one atomic block synchronously on `core` (no other cores move).
  std::uint64_t run_ab(unsigned ab_id, std::vector<std::uint64_t> args,
                       sim::CoreId core = 0) {
    runtime::TxExecutor exec(*sys, core);
    exec.start(ab_id, std::move(args));
    while (!exec.finished()) exec.step();
    return exec.take_result();
  }
};

/// CoreTask adapter: runs a fixed schedule of atomic blocks on one core.
class ScriptTask final : public sim::CoreTask {
 public:
  struct Item {
    unsigned ab_id;
    std::vector<std::uint64_t> args;
    sim::Cycle think = 10;
  };
  ScriptTask(runtime::TxSystem& sys, sim::CoreId core, std::vector<Item> items)
      : exec_(sys, core), items_(std::move(items)) {}

  sim::Cycle step(sim::Machine&, sim::CoreId) override {
    if (done_) return 1;
    if (active_) {
      if (!exec_.finished()) return exec_.step();
      results_.push_back(exec_.take_result());
      active_ = false;
      ++next_;
    }
    if (next_ >= items_.size()) {
      done_ = true;
      return 1;
    }
    const Item& it = items_[next_];
    exec_.start(it.ab_id, it.args);
    active_ = true;
    return it.think;
  }
  bool done() const override { return done_; }
  const std::vector<std::uint64_t>& results() const { return results_; }

 private:
  runtime::TxExecutor exec_;
  std::vector<Item> items_;
  std::vector<std::uint64_t> results_;
  std::size_t next_ = 0;
  bool active_ = false;
  bool done_ = false;
};

/// `name` inside $TMPDIR (or /tmp).
inline std::string tmp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         name;
}

/// The whole file at `path` ("" when it cannot be opened).
inline std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Serializes everything simulated about a run into one comparable string:
/// every CoreStats counter and histogram (through the metrics JSON writer,
/// so nothing is forgotten), the state digest and the commit log.
/// Host-side fields (wall_ms, privacy, prov) are deliberately excluded.
inline std::string sim_fingerprint(const workloads::RunResult& r) {
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
      for (std::uint64_t a : rec.args)
        std::fprintf(f, "%llx,", static_cast<unsigned long long>(a));
    }
  }
  std::fclose(f);
  std::string s(buf, len);
  std::free(buf);
  return s;
}

}  // namespace st::testutil
