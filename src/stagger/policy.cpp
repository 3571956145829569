#include "stagger/policy.hpp"

namespace st::stagger {

namespace {
void emit_decision(obs::Observer* o,
                   const std::function<sim::Cycle()>& clock,
                   const ABContext& ctx, PolicyDecision d,
                   std::uint32_t anchor_alp, sim::Addr conf_line) {
  if (o == nullptr) return;
  o->policy_decision(ctx.core, clock ? clock() : 0,
                     static_cast<std::uint8_t>(d), anchor_alp, conf_line);
}
}  // namespace

const char* decision_name(PolicyDecision d) {
  switch (d) {
    case PolicyDecision::kTraining: return "training";
    case PolicyDecision::kPrecise: return "precise";
    case PolicyDecision::kCoarse: return "coarse";
    case PolicyDecision::kPromoted: return "promoted";
  }
  return "?";
}

std::uint32_t LockingPolicy::promote(const UnifiedAnchorTable& t,
                                     std::uint32_t alp, unsigned level) const {
  std::uint32_t cur = alp;
  for (unsigned i = 0; i < level; ++i) {
    const std::uint32_t parent = t.parent_of(cur);
    if (parent == 0 || parent == cur) break;  // top of the structure
    cur = parent;
  }
  return cur;
}

PolicyDecision LockingPolicy::on_abort(ABContext& ctx,
                                       std::uint32_t anchor_alp,
                                       sim::Addr conf_line) {
  PolicyDecision decision;

  if (cfg_.addr_only) {
    // The AddrOnly strawman: a single fixed ALP per atomic block (its id is
    // passed as anchor_alp), activated in precise mode only when the
    // conflict address recurs.
    const bool a = ctx.count_addr(conf_line) > cfg_.addr_thr;
    if (a) {
      ctx.configured_anchor = anchor_alp;
      ctx.block_address = conf_line;
      decision = PolicyDecision::kPrecise;
    } else {
      ctx.configured_anchor = 0;
      ctx.block_address = 0;
      decision = PolicyDecision::kTraining;
    }
    ctx.append_history(anchor_alp, conf_line);
    emit_decision(obs_, clock_, ctx, decision, anchor_alp, conf_line);
    return decision;
  }

  const bool a = ctx.count_addr(conf_line) > cfg_.addr_thr;
  const bool p = ctx.count_pc(anchor_alp) > cfg_.pc_thr;

  if (p && a) {  // case 1: precise mode
    ctx.configured_anchor = anchor_alp;
    ctx.block_address = conf_line;
    ctx.coarse_retries = 0;
    ctx.promotion_level = 0;
    decision = PolicyDecision::kPrecise;
  } else if (p) {
    // Recurrent PC, varying addresses. Track how long coarse mode has been
    // failing; every PROM_THR consecutive coarse aborts climb one level.
    if (ctx.configured_anchor != 0 && ctx.block_address == 0)
      ++ctx.coarse_retries;
    if (ctx.coarse_retries < cfg_.prom_thr) {  // case 2: coarse grain
      ctx.configured_anchor = anchor_alp;
      ctx.block_address = 0;
      decision = PolicyDecision::kCoarse;
    } else {  // case 3: locking promotion
      ++ctx.promotion_level;
      ctx.coarse_retries = 0;
      ctx.configured_anchor =
          promote(*ctx.table(), anchor_alp, ctx.promotion_level);
      ctx.block_address = 0;
      decision = PolicyDecision::kPromoted;
    }
  } else {  // case 4: training mode
    ctx.configured_anchor = 0;
    ctx.block_address = 0;
    ctx.coarse_retries = 0;
    decision = PolicyDecision::kTraining;
  }

  ctx.append_history(anchor_alp, conf_line);
  emit_decision(obs_, clock_, ctx, decision, anchor_alp, conf_line);
  return decision;
}

void LockingPolicy::decay(ABContext& ctx) {
  // Shift out stale conflict records so over-locking dissolves once the
  // contention phase passes; deactivate when the pattern no longer clears
  // the thresholds.
  ctx.append_history(0, 0);
  if (ctx.configured_anchor != 0) {
    const bool still = cfg_.addr_only
                           ? ctx.count_addr(ctx.block_address) > cfg_.addr_thr
                           : ctx.count_pc(ctx.configured_anchor) > cfg_.pc_thr;
    if (!still) {
      ctx.configured_anchor = 0;
      ctx.block_address = 0;
      ctx.promotion_level = 0;
      ctx.coarse_retries = 0;
    }
  }
}

void LockingPolicy::on_lock_timeout(ABContext& ctx) { decay(ctx); }

void LockingPolicy::on_commit(ABContext& ctx, bool held_lock,
                              bool lock_contended, bool first_attempt) {
  if (held_lock && !lock_contended) decay(ctx);
  if (held_lock && lock_contended) {
    // The lock did its job; a committed transaction resets the coarse-abort
    // streak so promotion only triggers on *consecutive* failures.
    ctx.coarse_retries = 0;
  }
  // Decision (1) of §2 keys on the *frequency* of contention aborts: a run
  // of retry-free commits drains the abort history so infrequently
  // conflicting blocks fall back to pure speculation.
  if (first_attempt) {
    if (++ctx.clean_streak >= cfg_.clean_decay) {
      ctx.clean_streak = 0;
      if (!held_lock) decay(ctx);
    }
  } else {
    ctx.clean_streak = 0;
  }
}

}  // namespace st::stagger
