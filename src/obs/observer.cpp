#include "obs/observer.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"
#include "common/env.hpp"

namespace st::obs {

const char* event_kind_name(EventKind k) {
  static constexpr const char* kNames[] = {
      "tx_begin",     "tx_commit",    "tx_abort",        "alp_fired",
      "lock_acquire", "lock_release", "lock_timeout",    "policy_decision",
      "irrevocable",  "backoff",      "core_done",       "line_escape",
      "blame",        "lock_episode"};
  static_assert(std::size(kNames) == kNumEventKinds);
  return unsigned(k) < kNumEventKinds ? kNames[unsigned(k)] : "?";
}

const char* lock_outcome_name(LockOutcome o) {
  static constexpr const char* kNames[] = {"attempt_ended", "acquired",
                                           "timeout", "aborted_waiting"};
  return unsigned(o) < std::size(kNames) ? kNames[unsigned(o)] : "?";
}

const char* lock_class_name(LockClass c) {
  static constexpr const char* kNames[] = {
      "conflict_avoided", "false_serialization", "indeterminate"};
  return unsigned(c) < std::size(kNames) ? kNames[unsigned(c)] : "?";
}

TraceConfig TraceConfig::from_env() {
  TraceConfig cfg;
  cfg.path = env_str("STAGTM_TRACE");
  cfg.cap_per_core = static_cast<std::size_t>(
      env_u64("STAGTM_TRACE_CAP", 1u << 16, 16, 1u << 24,
              "an integer in [16,16777216]"));
  return cfg;
}

std::string uniquify_trace_path(const std::string& path, std::size_t job) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  std::string tag = std::to_string(job);
  tag.insert(tag.begin(), '.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

Observer::Observer(unsigned cores, std::size_t cap_per_core)
    : cap_(cap_per_core) {
  ST_CHECK_MSG(cores >= 1, "Observer needs at least one core");
  ST_CHECK_MSG(cap_ >= 1, "Observer needs capacity >= 1");
  percore_.resize(cores);
  for (PerCore& p : percore_) {
    p.ring.resize(cap_);
    p.fp.reserve(kFootprintLines);
  }
}

// ---------------------------------------------------------------------------
// Attempt lifecycle.
// ---------------------------------------------------------------------------

void Observer::begin_attempt(sim::CoreId c, unsigned ab_id, bool irrev) {
  PerCore& p = percore_[c];
  p.ab_id = static_cast<std::uint16_t>(ab_id);
  p.irrev = irrev;
  ++p.gen;
}

void Observer::tx_begin(sim::CoreId c, sim::Cycle at, std::uint8_t tier,
                        unsigned ab_id, unsigned attempt) {
  event(c, at, EventKind::kTxBegin, tier, ab_id, attempt);
  begin_attempt(c, ab_id, false);
}

void Observer::irrevocable(sim::CoreId c, sim::Cycle at, unsigned ab_id,
                           unsigned attempts) {
  event(c, at, EventKind::kIrrevocable, 0, ab_id, attempts);
  begin_attempt(c, ab_id, true);
}

void Observer::tx_commit(sim::CoreId c, sim::Cycle at, std::uint8_t tier,
                         unsigned ab_id, unsigned attempts) {
  event(c, at, EventKind::kTxCommit, tier, ab_id, attempts);
  attempt_end(c, at);
}

void Observer::attempt_abort(sim::CoreId c, sim::Cycle at, unsigned attempts,
                             sim::Cycle wasted, bool will_glock) {
  PerCore& p = percore_[c];
  if (p.finalized) {
    Blame r = p.blame;
    r.victim_ab = p.ab_id;
    r.wasted_cycles = wasted;
    r.retry = static_cast<std::uint8_t>(attempts < 255 ? attempts : 255);
    if (will_glock) r.flags |= kBlameWillGlock;
    if (p.fp_truncated) r.flags |= kBlameFpTruncated;
    push(c, r);
  }
  attempt_end(c, at);
}

void Observer::attempt_end(sim::CoreId c, sim::Cycle at) {
  PerCore& p = percore_[c];
  // Publish this attempt's footprint to every waiter that observed us
  // holding its lock during this attempt (generation-matched: a waiter that
  // sampled a different attempt must not inherit this footprint).
  for (PerCore& w : percore_) {
    OpenEpisode& e = w.episode;
    if (e.open && !e.holder_fp_valid && e.rec.holder_core != 0xFF &&
        e.holder == c && e.holder_gen == p.gen && p.fp_captured) {
      e.holder_fp = p.fp;
      e.holder_fp_valid = true;
      e.holder_fp_truncated = p.fp_truncated;
    }
  }
  resolve_episode(c, at);
  p.stamped = false;
  p.finalized = false;
  p.fp_captured = false;
  p.fp_truncated = false;
}

// ---------------------------------------------------------------------------
// Blame: stamp, footprint, finalization.
// ---------------------------------------------------------------------------

void Observer::conflict_stamp(sim::CoreId victim, sim::CoreId requester,
                              std::uint32_t requester_pc) {
  PerCore& v = percore_[victim];
  const PerCore& a = percore_[requester];
  v.stamped = true;
  v.blame.aggressor_core = static_cast<std::uint8_t>(requester);
  v.blame.aggressor_pc = requester_pc;
  // Sampled now, not at the victim's (later) abort finalization: by then
  // the aggressor may have committed and moved on to another block.
  v.blame.aggressor_ab = a.ab_id;
  v.blame.flags = a.irrev ? kBlameAggressorIrrev : 0;
}

void Observer::capacity_stamp(sim::CoreId c,
                              const std::vector<sim::Addr>& fp) {
  capture_footprint(c, fp);
  // Overwrites any earlier conflict stamp, as HtmSystem::mark_capacity_abort
  // does: the overflow is what the attempt actually dies of.
  conflict_stamp(c, c, 0);
}

void Observer::capture_footprint(sim::CoreId c,
                                 const std::vector<sim::Addr>& lines) {
  PerCore& p = percore_[c];
  if (p.fp_captured) return;  // first capture wins (capacity stamps early)
  const std::size_t n = std::min(lines.size(), kFootprintLines);
  p.fp.assign(lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(n));
  p.fp_truncated = lines.size() > kFootprintLines;
  p.fp_captured = true;
}

void Observer::tx_abort(sim::CoreId c, sim::Cycle at, const AbortReport& a,
                        const std::vector<sim::Addr>& fp) {
  const std::uint16_t tag = a.pc_tag_valid ? a.pc_tag : std::uint16_t{0};
  // a32 carries the aborting core + 1 so 0 can mean "self-inflicted".
  event(c, at, EventKind::kTxAbort, a.cause,
        a.aborter < 0 ? 0u : static_cast<std::uint32_t>(a.aborter) + 1,
        a.line, tag);
  if (!a.stm_tier) capture_footprint(c, fp);  // STM has no hardware footprint
  PerCore& p = percore_[c];
  p.finalized = true;
  // The stamp-time aggressor fields stay; everything else is fresh.
  const Blame stamp = p.stamped ? p.blame : Blame{};
  p.blame = Blame{
      .at = at,
      .cause = a.cause,
      .pc_tag = a.pc_tag,
      .victim_pc = a.first_pc,
      .line = a.line,
      .aggressor_pc = stamp.aggressor_pc,
      .alloc_site = a.alloc_site,
      .aggressor_ab = stamp.aggressor_ab,
      .aggressor_core = stamp.aggressor_core,
      .flags = static_cast<std::uint8_t>(
          stamp.flags | (p.stamped ? kBlameHasAggressor : 0) |
          (a.pc_tag_valid ? kBlamePcTagValid : 0) |
          (a.priv_owner >= 0 ? kBlameLinePrivate : 0) |
          (a.stm_tier ? kBlameTierStm : 0)),
      .priv_owner = static_cast<std::uint8_t>(
          a.priv_owner < 0 ? 0xFF : a.priv_owner)};
}

// ---------------------------------------------------------------------------
// Lock episodes.
// ---------------------------------------------------------------------------

void Observer::lock_wait(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                         sim::Addr line, int holder) {
  PerCore& p = percore_[c];
  OpenEpisode& e = p.episode;
  if (e.open) return;  // continued spinning extends the first episode
  e = OpenEpisode{};
  e.open = true;
  e.rec.at = at;
  e.rec.lock_idx = lock_idx;
  e.rec.data_line = line;
  e.rec.waiter_ab = p.ab_id;
  e.rec.outcome = static_cast<std::uint8_t>(LockOutcome::kWaiting);
  if (holder >= 0 && static_cast<unsigned>(holder) < percore_.size()) {
    const PerCore& h = percore_[static_cast<std::size_t>(holder)];
    e.holder = static_cast<sim::CoreId>(holder);
    e.holder_gen = h.gen;
    e.rec.holder_core = static_cast<std::uint8_t>(holder);
    e.rec.holder_ab = h.ab_id;
    if (h.irrev) e.rec.flags |= kEpisodeHolderIrrev;
  }
}

namespace {
void close_wait(Episode& r, LockOutcome o, sim::Cycle at) {
  if (r.outcome != static_cast<std::uint8_t>(LockOutcome::kWaiting)) return;
  r.outcome = static_cast<std::uint8_t>(o);
  r.wait_cycles = at >= r.at ? at - r.at : 0;
}
}  // namespace

void Observer::lock_acquire(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                            sim::Addr line) {
  event(c, at, EventKind::kLockAcquire, 0, lock_idx, line);
  OpenEpisode& e = percore_[c].episode;
  if (e.open) close_wait(e.rec, LockOutcome::kAcquired, at);
}

void Observer::lock_timeout(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                            sim::Cycle waited) {
  OpenEpisode& e = percore_[c].episode;
  if (e.open) close_wait(e.rec, LockOutcome::kTimeout, at);
  event(c, at, EventKind::kLockTimeout, 0, lock_idx, waited);
}

void Observer::lock_wait_aborted(sim::CoreId c, sim::Cycle at) {
  OpenEpisode& e = percore_[c].episode;
  if (e.open) close_wait(e.rec, LockOutcome::kAbortedWaiting, at);
}

void Observer::resolve_episode(sim::CoreId c, sim::Cycle at) {
  PerCore& p = percore_[c];
  OpenEpisode& e = p.episode;
  if (!e.open) return;
  close_wait(e.rec, LockOutcome::kWaiting, at);  // attempt ended mid-spin
  Episode r = e.rec;
  if (e.holder_fp_valid) r.flags |= kEpisodeHolderFpValid;
  if (e.holder_fp_truncated || p.fp_truncated || !p.fp_captured)
    r.flags |= kEpisodeFpTruncated;
  if (!e.holder_fp_valid || !p.fp_captured || e.holder_fp_truncated ||
      p.fp_truncated) {
    // A missing or clipped footprint can hide the overlapping line, so no
    // claim of "false serialization" is safe (irrevocable holders have no
    // speculative footprint at all and always land here).
    r.classification = static_cast<std::uint8_t>(LockClass::kIndeterminate);
  } else {
    overlap_scratch_ = e.holder_fp;
    std::sort(overlap_scratch_.begin(), overlap_scratch_.end());
    unsigned overlap = 0;
    sim::Addr sample = 0;
    for (const sim::Addr a : p.fp) {
      if (std::binary_search(overlap_scratch_.begin(),
                             overlap_scratch_.end(), a)) {
        if (overlap == 0) sample = a;
        ++overlap;
      }
    }
    r.overlap_lines =
        static_cast<std::uint16_t>(overlap < 0xFFFF ? overlap : 0xFFFF);
    r.overlap_line = sample;
    r.classification = static_cast<std::uint8_t>(
        overlap > 0 ? LockClass::kConflictAvoided
                    : LockClass::kFalseSerialization);
  }
  push(c, r);
  e = OpenEpisode{};
}

// ---------------------------------------------------------------------------
// Rings.
// ---------------------------------------------------------------------------

std::vector<Record> Observer::chronological(sim::CoreId c) const {
  const PerCore& p = percore_[c];
  const std::uint64_t n = p.total < cap_ ? p.total : cap_;
  std::vector<Record> out;
  out.reserve(static_cast<std::size_t>(n));
  const std::uint64_t start = p.total - n;  // oldest surviving record
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(p.ring[static_cast<std::size_t>((start + i) % cap_)]);
  return out;
}

}  // namespace st::obs
