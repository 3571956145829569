// The locking policy (paper §5.2, Fig. 6).
//
// On each contention abort the policy classifies the recent conflict
// pattern of one atomic block on one thread and decides which advisory
// locking point (if any) to activate for future instances:
//
//   precise    — recurrent conflicting PC *and* address: activate the
//                anchor with the conflict address as target;
//   coarse     — recurrent PC, varying addresses (lists/trees): activate
//                the anchor with a wildcard address;
//   promotion  — coarse keeps aborting: climb the anchor's parent chain
//                (lock the enclosing structure);
//   training   — no pattern yet: keep gathering statistics.
#pragma once

#include "stagger/abcontext.hpp"

namespace st::stagger {

struct PolicyConfig {
  unsigned pc_thr = 2;    // PC_THR: strictly more occurrences than this
  unsigned addr_thr = 2;  // ADDR_THR
  unsigned prom_thr = 4;  // PROM_THR: coarse aborts before promotion
  unsigned clean_decay = 4;  // retry-free commits per decayed history entry
  bool addr_only = false; // "AddrOnly" scheme: fixed entry ALP, precise only
};

enum class PolicyDecision : std::uint8_t {
  kTraining,
  kPrecise,
  kCoarse,
  kPromoted,
};

const char* decision_name(PolicyDecision d);

class LockingPolicy {
 public:
  explicit LockingPolicy(PolicyConfig cfg = {}) : cfg_(cfg) {}

  /// ActivateALPoint (Fig. 6). `anchor_alp` is the ALP of the anchor that
  /// first accessed the conflicting line (already resolved through the
  /// anchor table's pioneer link; 0 when unidentifiable). The caller
  /// records the returned decision in the observer (TxExecutor).
  PolicyDecision on_abort(ABContext& ctx, std::uint32_t anchor_alp,
                          sim::Addr conf_line);

  /// Commit bookkeeping: a commit that held an uncontended advisory lock
  /// appends an empty history entry so low-contention phases deactivate
  /// their ALPs (anti-over-locking, §5.2).
  void on_commit(ABContext& ctx, bool held_lock, bool lock_contended,
                 bool first_attempt);

  /// An ALP acquire timed out and the transaction proceeded unprotected
  /// (§2). Waiting that long without getting the lock means serialization
  /// is not paying for itself here; decay the activation the same way an
  /// uncontended commit does.
  void on_lock_timeout(ABContext& ctx);

  const PolicyConfig& config() const { return cfg_; }

 private:
  void decay(ABContext& ctx);

  /// Follows the parent chain `level` steps from `alp` (stops at the top).
  std::uint32_t promote(const UnifiedAnchorTable& t, std::uint32_t alp,
                        unsigned level) const;

  PolicyConfig cfg_;
};

}  // namespace st::stagger
