// The simulator's observer (DESIGN.md §10): one per-core ring of 48-byte
// records holding the event trace ("what happened when") and conflict
// provenance ("who is to blame, and did the advisory locks earn their
// serialization").
//
// Event sites hold one `Observer*` (null unless TraceConfig::path is set) and
// make one null-checked call per event, e.g. `o->tx_commit(core, now, tier,
// ab, attempts)`. The call writes the event record and advances the
// provenance state machine, which adds kBlame records (one per finalized
// abort, attributed) and kEpisode records (one per advisory-lock wait,
// classified by intersecting waiter and holder footprints) to the same ring.
// Hooks only copy values the simulator already computed, inside
// synchronizing steps, so nothing simulated changes with the observer on and
// the file does not change with step fusion on.
//
// Knobs, read by workloads::options_from_env (exit 2 on malformed values,
// like every STAGTM_* knob):
//   STAGTM_TRACE=<path>         enable; ".json" writes a Chrome trace_event
//                               file (Perfetto), any other suffix the binary
//                               container read by `stagtm-trace`
//   STAGTM_TRACE_CAP=<n>        per-core ring capacity (default 65536)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"

namespace st::obs {

enum class EventKind : std::uint8_t {
  kTxBegin = 0,     // a32 = atomic block id, a64 = attempt number (1-based),
                    // arg8 = execution tier (0 = HTM, 2 = STM)
  kTxCommit,        // a32 = ab id, a64 = attempts used, arg8 = execution
                    // tier: 0 = HTM, 1 = irrevocable (glock), 2 = STM
  kTxAbort,         // arg8 = htm::AbortCause, pc_tag = hw tag (when valid),
                    // a32 = aborter core + 1 (0 = self/none), a64 = line
  kAlpFired,        // a32 = ALP id, a64 = target line the lock protects
  kLockAcquire,     // a32 = lock index, a64 = data line that hashed to it
  kLockRelease,     // a32 = lock index, a64 = hold duration in cycles
  kLockTimeout,     // a32 = lock index, a64 = cycles spent waiting
  kPolicyDecision,  // arg8 = stagger::PolicyDecision, a32 = anchor ALP,
                    // a64 = conflicting line
  kIrrevocable,     // a32 = ab id, a64 = attempts before the glock
  kBackoff,         // a32 = attempt number, a64 = delay in cycles
  kCoreDone,        // the core's task finished (timeline end marker)
  kLineEscape,      // a line left its arena's private domain: arg8 = owner
                    // core, a32 = publishing PC (0 = commit/host channel),
                    // a64 = line address; recorded on the publisher's ring
  kBlame,           // Blame view
  kEpisode,         // Episode view
  kCount_,
};

inline constexpr unsigned kNumEventKinds =
    static_cast<unsigned>(EventKind::kCount_);

/// Stable lowercase name, e.g. "tx_begin"; used by exporters and the CLI.
const char* event_kind_name(EventKind k);

/// Every kind before kBlame (field meanings per kind above).
struct Event {
  sim::Cycle at;
  EventKind kind;
  std::uint8_t arg8;
  std::uint16_t pc_tag;
  std::uint32_t a32;
  std::uint64_t a64;
  std::uint64_t zero[3];  // records are written verbatim: keep bytes defined
};

// Blame::flags bits.
inline constexpr std::uint8_t kBlamePcTagValid = 1u << 0;
inline constexpr std::uint8_t kBlameWillGlock = 1u << 1;   // retry budget spent
inline constexpr std::uint8_t kBlameAggressorIrrev = 1u << 2;
inline constexpr std::uint8_t kBlameLinePrivate = 1u << 3;
inline constexpr std::uint8_t kBlameFpTruncated = 1u << 4;
inline constexpr std::uint8_t kBlameHasAggressor = 1u << 5;
inline constexpr std::uint8_t kBlameTierStm = 1u << 6;  // STM-tier attempt

/// One finalized abort; the victim is the core whose ring holds it.
struct Blame {
  sim::Cycle at = 0;                // abort-finalization cycle
  EventKind kind = EventKind::kBlame;
  std::uint8_t cause = 0;           // htm::AbortCause
  std::uint16_t pc_tag = 0;         // hardware view (valid per flags)
  std::uint32_t victim_pc = 0;      // first speculative access to `line`
  std::uint64_t line = 0;           // conflicting (or overflowing) line
  std::uint64_t wasted_cycles = 0;  // cycles the doomed attempt burned
  std::uint32_t aggressor_pc = 0;   // access PC of the conflicting request
  std::uint32_t alloc_site = 0;     // allocation-site PC of `line`'s block
  std::uint16_t victim_ab = 0;
  std::uint16_t aggressor_ab = 0;   // valid iff kBlameHasAggressor
  std::uint8_t aggressor_core = 0;  // == the victim on capacity self-abort
  std::uint8_t retry = 0;           // 1-based attempt number, saturated at 255
  std::uint8_t flags = 0;
  std::uint8_t priv_owner = 0xFF;   // owning core of a still-private line
};

enum class LockOutcome : std::uint8_t {
  kWaiting = 0,        // attempt ended while still spinning
  kAcquired,           // lock obtained after waiting
  kTimeout,            // gave up and ran unprotected (§2)
  kAbortedWaiting,     // transaction died during the spin
};
const char* lock_outcome_name(LockOutcome o);

enum class LockClass : std::uint8_t {
  kConflictAvoided = 0,    // waiter and holder footprints overlapped
  kFalseSerialization,     // footprints disjoint: the wait was pure cost
  kIndeterminate,          // a footprint was missing or truncated
};
const char* lock_class_name(LockClass c);

// Episode::flags bits.
inline constexpr std::uint8_t kEpisodeFpTruncated = 1u << 0;
inline constexpr std::uint8_t kEpisodeHolderFpValid = 1u << 1;
inline constexpr std::uint8_t kEpisodeHolderIrrev = 1u << 2;

/// One advisory-lock wait; the waiter is the core whose ring holds it.
struct Episode {
  sim::Cycle at = 0;                // wait start
  EventKind kind = EventKind::kEpisode;
  std::uint8_t outcome = 0;         // LockOutcome
  std::uint8_t classification = 0;  // LockClass
  std::uint8_t flags = 0;
  std::uint32_t lock_idx = 0;
  std::uint64_t data_line = 0;      // line that hashed to the lock
  std::uint64_t wait_cycles = 0;    // spin duration (resolution - start)
  std::uint64_t overlap_line = 0;   // sample overlapping line (0 = none)
  std::uint16_t waiter_ab = 0;
  std::uint16_t holder_ab = 0;      // valid iff kEpisodeHolderFpValid
  std::uint16_t overlap_lines = 0;
  std::uint8_t holder_core = 0xFF;  // 0xFF = unknown
  std::uint8_t zero = 0;
};

/// The unit of the ring and of the file. `at` and `kind` lead every view,
/// so kind() and at() read correctly whichever view is active.
union Record {
  Event event;
  Blame blame;
  Episode episode;

  // Implicit: each view converts to the record that holds it.
  Record() : event{} {}
  Record(const Event& e) : event(e) {}
  Record(const Blame& b) : blame(b) {}
  Record(const Episode& e) : episode(e) {}
  EventKind kind() const { return event.kind; }
  sim::Cycle at() const { return event.at; }
};
static_assert(sizeof(Record) == 48 && sizeof(Event) == 48 &&
                  sizeof(Blame) == 48 && sizeof(Episode) == 48,
              "the binary container relies on 48-byte records");
static_assert(std::has_unique_object_representations_v<Event> &&
                  std::has_unique_object_representations_v<Blame> &&
                  std::has_unique_object_representations_v<Episode>,
              "padding bytes would make files nondeterministic");

struct TraceConfig {
  std::string path;                    // empty = observer disabled
  std::size_t cap_per_core = 1u << 16; // STAGTM_TRACE_CAP

  bool enabled() const { return !path.empty(); }

  /// Reads STAGTM_TRACE / STAGTM_TRACE_CAP; exits 2 on malformed values.
  /// Parsed fresh on each call (no latch) so tests can exercise the
  /// validation.
  static TraceConfig from_env();
};

/// "out.json" + id 3 -> "out.3.json"; used by the bench sweeps so
/// concurrent jobs under one STAGTM_TRACE setting never clobber each other.
std::string uniquify_trace_path(const std::string& path, std::size_t job);

/// Lines kept per captured footprint; a larger footprint is truncated and
/// its episodes classify as indeterminate, never wrongly.
inline constexpr std::size_t kFootprintLines = 64;

/// What abort finalization knows about an abort (HtmSystem::abort for the
/// HTM tier, TxExecutor::stm_abort for the STM tier).
struct AbortReport {
  std::uint8_t cause = 0;        // htm::AbortCause
  sim::Addr line = 0;
  bool pc_tag_valid = false;
  std::uint16_t pc_tag = 0;
  std::uint32_t first_pc = 0;    // the victim's first access to `line`
  int aborter = -1;              // conflicting core; -1 = self/none
  std::uint32_t alloc_site = 0;  // Heap::alloc_site_for(line)
  int priv_owner = -1;           // PrivacyMap::private_owner(line)
  bool stm_tier = false;
};

class Observer {
 public:
  Observer(unsigned cores, std::size_t cap_per_core);

  unsigned cores() const { return static_cast<unsigned>(percore_.size()); }
  std::size_t capacity() const { return cap_; }

  // ---- executor (runtime/tx_executor.cpp) ----
  void tx_begin(sim::CoreId c, sim::Cycle at, std::uint8_t tier,
                unsigned ab_id, unsigned attempt);
  void irrevocable(sim::CoreId c, sim::Cycle at, unsigned ab_id,
                   unsigned attempts);
  /// Publishes the captured footprint to waiters and resolves this core's
  /// own episode.
  void tx_commit(sim::CoreId c, sim::Cycle at, std::uint8_t tier,
                 unsigned ab_id, unsigned attempts);
  /// Closes a finalized abort into a kBlame record, then does the same
  /// footprint/episode bookkeeping as a commit.
  void attempt_abort(sim::CoreId c, sim::Cycle at, unsigned attempts,
                     sim::Cycle wasted, bool will_glock);
  void backoff(sim::CoreId c, sim::Cycle at, unsigned attempt,
               sim::Cycle delay) {
    event(c, at, EventKind::kBackoff, 0, attempt, delay);
  }
  void alp_fired(sim::CoreId c, sim::Cycle at, std::uint32_t alp,
                 sim::Addr line) {
    event(c, at, EventKind::kAlpFired, 0, alp, line);
  }
  void lock_timeout(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                    sim::Cycle waited);
  void lock_wait_aborted(sim::CoreId c, sim::Cycle at);

  // ---- HTM (htm/htm.cpp); tx_abort also from the STM tier ----
  /// First conflict stamp of the victim's attempt. Aggressor context
  /// (block, tier) is sampled NOW: it can rot before the victim notices.
  void conflict_stamp(sim::CoreId victim, sim::CoreId requester,
                      std::uint32_t requester_pc);
  /// Capacity overflow: the victim is its own aggressor. Captures the
  /// footprint now, because the overflow clears speculative state at once.
  void capacity_stamp(sim::CoreId c, const std::vector<sim::Addr>& fp);
  /// Keeps the first footprint captured per attempt.
  void capture_footprint(sim::CoreId c, const std::vector<sim::Addr>& lines);
  /// Abort finalization: records kTxAbort and holds the attribution for
  /// attempt_abort(). `fp` is an HTM attempt's speculative footprint.
  void tx_abort(sim::CoreId c, sim::Cycle at, const AbortReport& a,
                const std::vector<sim::Addr>& fp);

  // ---- advisory locks (stagger/advisory_locks.cpp) ----
  void lock_acquire(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                    sim::Addr line);
  /// A failed CAS against a held lock opens a wait episode against the
  /// observed holder (< 0: unknown); further spins extend it.
  void lock_wait(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                 sim::Addr line, int holder);
  void lock_release(sim::CoreId c, sim::Cycle at, unsigned lock_idx,
                    sim::Cycle held) {
    event(c, at, EventKind::kLockRelease, 0, lock_idx, held);
  }

  // ---- policy, machine, memory system ----
  void policy_decision(sim::CoreId c, sim::Cycle at, std::uint8_t decision,
                       std::uint32_t anchor_alp, sim::Addr line) {
    event(c, at, EventKind::kPolicyDecision, decision, anchor_alp, line);
  }
  void core_done(sim::CoreId c, sim::Cycle at) {
    event(c, at, EventKind::kCoreDone, 0, 0, 0);
  }
  void line_escape(sim::CoreId publisher, sim::Cycle at, unsigned owner,
                   std::uint32_t pc, sim::Addr line) {
    event(publisher, at, EventKind::kLineEscape,
          static_cast<std::uint8_t>(owner), pc, line);
  }

  // ---- the rings ----
  /// Records of `kind` emitted on core c, including dropped ones.
  std::uint64_t emitted(sim::CoreId c, EventKind kind) const {
    return percore_[c].by_kind[static_cast<unsigned>(kind)];
  }
  std::uint64_t emitted(sim::CoreId c) const { return percore_[c].total; }
  /// The surviving records of core c, oldest first.
  std::vector<Record> chronological(sim::CoreId c) const;

 private:
  struct OpenEpisode {             // an unresolved lock wait
    bool open = false;
    Episode rec;
    sim::CoreId holder = 0;
    std::uint64_t holder_gen = 0;  // holder's attempt generation at open
    std::vector<sim::Addr> holder_fp;
    bool holder_fp_valid = false;
    bool holder_fp_truncated = false;
  };
  struct PerCore {
    // Ring.
    std::vector<Record> ring;
    std::uint64_t total = 0;
    std::array<std::uint64_t, kNumEventKinds> by_kind{};
    // Current-attempt context (sampled by stamps against this core).
    std::uint16_t ab_id = 0;
    bool irrev = false;
    std::uint64_t gen = 0;         // bumped at every attempt begin
    // The attempt in flight.
    bool stamped = false;          // an aggressor was stamped
    bool finalized = false;        // tx_abort ran
    Blame blame;                   // attribution gathered so far
    std::vector<sim::Addr> fp;     // captured footprint (bounded)
    bool fp_captured = false;
    bool fp_truncated = false;
    OpenEpisode episode;           // at most one lock wait per core
  };

  void push(sim::CoreId c, const Record& r) {
    PerCore& p = percore_[c];
    p.ring[static_cast<std::size_t>(p.total % cap_)] = r;
    ++p.total;
    ++p.by_kind[static_cast<unsigned>(r.kind())];
  }
  void event(sim::CoreId c, sim::Cycle at, EventKind k, std::uint8_t arg8,
             std::uint32_t a32, std::uint64_t a64, std::uint16_t pc_tag = 0) {
    push(c, Event{at, k, arg8, pc_tag, a32, a64, {}});
  }
  void begin_attempt(sim::CoreId c, unsigned ab_id, bool irrev);
  /// Commit/abort epilogue shared by both attempt-end paths.
  void attempt_end(sim::CoreId c, sim::Cycle at);
  void resolve_episode(sim::CoreId c, sim::Cycle at);

  std::vector<PerCore> percore_;
  std::size_t cap_;
  std::vector<sim::Addr> overlap_scratch_;
};

}  // namespace st::obs
