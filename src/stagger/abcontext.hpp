// Per-thread, per-atomic-block runtime context (paper Fig. 4).
#pragma once

#include <cstdint>

#include "sim/types.hpp"
#include "stagger/anchor_table.hpp"

namespace st::stagger {

/// Abort history record: the anchor whose access first touched the
/// conflicting line, and the conflicting line itself. An empty entry
/// (anchor_alp == 0 && conf_line == 0) is appended on uncontended-lock
/// commits to decay stale patterns.
struct AbortHistoryEntry {
  std::uint32_t anchor_alp = 0;
  sim::Addr conf_line = 0;
};

class ABContext {
 public:
  static constexpr unsigned kHistoryDefault = 8;

  explicit ABContext(const UnifiedAnchorTable* table,
                     unsigned history_len = kHistoryDefault);

  const UnifiedAnchorTable* table() const { return table_; }

  // --- identity (set once by TxSystem; observability labels) ---
  sim::CoreId core = 0;  // the thread this context belongs to
  unsigned ab_id = 0;    // the atomic block it describes

  // --- activation state (what the policy decided) ---
  std::uint32_t configured_anchor = 0;  // 0 = no ALP active
  sim::Addr block_address = 0;          // 0 = coarse-grain wildcard
  unsigned promotion_level = 0;         // how far up the parent chain
  unsigned coarse_retries = 0;          // aborts since coarse activation

  // --- per-transaction-attempt state ---
  std::uint32_t active_anchor = 0;  // cleared when the lock is taken (Fig. 5)
  unsigned clean_streak = 0;        // consecutive retry-free commits

  /// Called by the runtime at transaction begin: re-arms the ALP.
  void arm() { active_anchor = configured_anchor; }

  // --- abort history ring ---
  void append_history(std::uint32_t anchor_alp, sim::Addr conf_line);
  unsigned count_addr(sim::Addr conf_line) const;
  unsigned count_pc(std::uint32_t anchor_alp) const;
  unsigned history_len() const { return len_; }
  const AbortHistoryEntry& history_at(unsigned i) const;  // 0 = oldest

 private:
  const UnifiedAnchorTable* table_;
  std::vector<AbortHistoryEntry> ring_;
  unsigned len_ = 0;
  unsigned pos_ = 0;  // next write slot
};

}  // namespace st::stagger
