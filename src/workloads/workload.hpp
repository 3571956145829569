// Workload abstraction: a benchmark = IR (types, functions, atomic blocks)
// + heap setup + a deterministic per-thread operation schedule + one
// invariant check.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "runtime/tx_system.hpp"

namespace st::workloads {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// Step 1 — build the module (before stagger::compile()).
  virtual void build_ir(ir::Module& m) = 0;

  /// Step 2 — allocate and initialize shared data (after TxSystem exists).
  virtual void setup(runtime::TxSystem& sys) = 0;

  /// Step 3 — the `op_index`-th operation of `thread`.
  struct Op {
    unsigned ab_id = 0;
    std::vector<std::uint64_t> args;
    sim::Cycle think = 50;  // non-transactional work preceding the txn
  };
  virtual Op next_op(runtime::TxSystem& sys, unsigned thread,
                     std::uint64_t op_index) = 0;

  /// Called by the harness when an operation's atomic block committed,
  /// with its return value (drives result-dependent schedules).
  virtual void on_result(unsigned thread, std::uint64_t op_index,
                         std::uint64_t result) {
    (void)thread;
    (void)op_index;
    (void)result;
  }

  /// Operations each thread performs (before ops_scale).
  virtual std::uint64_t ops_per_thread() const = 0;

  /// Step 4 — the one invariant check, run on the final heap after every
  /// run (verify() in default runs, RunResult::invariant_failure in
  /// checked runs, and on the oracle's serial replay). Returns "" or the
  /// first violation. Must survive corrupted shared state: walk structures
  /// only after the dslib host_*_validate helpers accept them.
  /// Replay guard: the replay instance never calls next_op()/on_result(),
  /// so checks against host-side counts of issued ops run only when some
  /// op was issued (e.g. `if (processed_ > 0)`); structural checks always.
  virtual std::string check_invariants(runtime::TxSystem& sys) = 0;

  /// check_invariants() as a hard check: prints the violation and aborts
  /// the process.
  void verify(runtime::TxSystem& sys) {
    const std::string err = check_invariants(sys);
    ST_CHECK_MSG(err.empty(), (std::string(name()) + ": " + err).c_str());
  }

  /// Address-independent digest of the final shared state (order- and
  /// content-sensitive, allocation-address-insensitive) for the
  /// serializability oracle's replay comparison. 0 means "not implemented" —
  /// the oracle then compares per-transaction results only.
  virtual std::uint64_t state_digest(runtime::TxSystem& sys) {
    (void)sys;
    return 0;
  }

  /// Table 4 contention class, for reporting.
  virtual const char* expected_contention() const { return "?"; }
};

using WorkloadFactory = std::unique_ptr<Workload> (*)();

/// Name -> factory registry (workloads register in registry.cpp).
const std::vector<std::pair<std::string, WorkloadFactory>>& workload_registry();
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace st::workloads
