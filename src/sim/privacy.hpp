// Per-line privacy (ownership) tracking for the arena heap.
//
// Every heap line starts out *private* to the core owning its allocation
// arena: no other core can even name it, because the only way an address
// crosses cores in this machine is by being stored to memory the other
// core can read (or returned through the host-visible commit result/arg
// channel). PrivacyMap watches exactly those publication points: when a
// value that looks like a pointer into a still-private block is published,
// the whole block irrevocably *escapes* to shared, and everything its
// committed contents point to escapes transitively. Publications only
// happen inside synchronizing steps (DESIGN.md §13/§14), so privacy
// observed when a core starts running ahead is stable until its next
// synchronizing step — the invariant that lets private-line L1 hits
// classify as local steps (a private line can never conflict, by
// construction).
//
// The map is deliberately conservative in one direction only: an integer
// that happens to look like a private address over-escapes a block (safe —
// its hits merely stop running ahead); a real published pointer is never
// missed, because every store to shared memory, every drained commit
// chunk, every commit result, and every host-dispatched op argument is
// checked. A foreign access that somehow reaches a private line anyway
// (address fabrication in a corrupted checker-mode run) is caught by the
// memory system and treated as the publication itself.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "sim/zero_pages.hpp"

namespace st::sim {

class Heap;

/// Observer of private->shared transitions, implemented by the memory
/// system (it counts the escape in CoreStats::priv_escapes and emits the
/// trace event), which registers itself in its constructor. Tests may
/// substitute a recording fake.
class LineEscapeSink {
 public:
  virtual ~LineEscapeSink() = default;

  /// Line `line` (owned by core/arena `owner`) just escaped because
  /// `publisher` published its address; `pc` is the publishing instruction
  /// when known (0 for commit drains and host-channel publications).
  virtual void on_line_escape(CoreId publisher, Addr line, CoreId owner,
                              std::uint32_t pc) = 0;
};

class PrivacyMap {
 public:
  PrivacyMap(const PrivacyMap&) = delete;
  PrivacyMap& operator=(const PrivacyMap&) = delete;

  /// The memory system registers itself here; tests may substitute a fake.
  /// Null (a heap without a memory system) only marks the escapes.
  void set_sink(LineEscapeSink* sink) { sink_ = sink; }

  /// Owning core of the still-private line containing `a`, or -1 when the
  /// line is shared (escaped, setup-arena, stagger gap, or out of heap).
  /// Worker arena i belongs to core i, mirroring Heap::alloc(core, ...).
  int private_owner(Addr a) const {
    if (a < base_) return -1;
    const Addr rel = a - base_;
    if (rel >= workers_end_) return -1;  // setup arena / beyond
    // rel / stride_ without a divide: the multiply-high estimate is never
    // high and, for rel < 2^64, at most two low.
    Addr arena = static_cast<Addr>(
        (static_cast<unsigned __int128>(rel) * stride_recip_) >> 64);
    Addr off = rel - arena * stride_;
    while (off >= stride_) {
      ++arena;
      off -= stride_;
    }
    if (off >= arena_bytes_) return -1;  // stagger gap
    if (meta_[rel >> kLineShift] & kEscaped) return -1;
    return static_cast<int>(arena);
  }
  bool private_to(CoreId c, Addr a) const {
    return private_owner(a) == static_cast<int>(c);
  }
  /// True when `v` addresses a block still private to a core *other than*
  /// `c` — the host-dispatch argument check (workloads/harness.cpp).
  bool foreign_private(CoreId c, std::uint64_t v) const {
    const int o = private_owner(v);
    return o >= 0 && o != static_cast<int>(c);
  }

  /// Heap::alloc hook: records block extent metadata so a published
  /// interior pointer escapes the *whole* block (a reachable block is
  /// reachable through any of its lines). Idempotent across free/realloc —
  /// size-class reuse keeps the line->layout mapping stable — and escape
  /// bits survive reallocation (irrevocability). Blocks too large to track
  /// (> kMaxBlockLines lines) are born shared.
  void on_alloc(Addr a, std::size_t cls, unsigned arena);

  /// Publication point: value `v` written by `publisher` became visible
  /// outside the publisher's private domain. If it addresses a private
  /// block, that block escapes, then everything the block's committed
  /// contents point to, transitively.
  void publish_value(CoreId publisher, std::uint64_t v, std::uint32_t pc);

  /// Largest block (in lines) whose extent is tracked; bigger blocks are
  /// born shared (the metadata field is 14 bits).
  static constexpr std::size_t kMaxBlockLines = (1u << 14) - 1;

 private:
  friend class Heap;
  /// Only `heap` builds its map: geometry is taken from it, and it serves
  /// the committed-content reads of transitive escapes.
  explicit PrivacyMap(const Heap& heap);

  // Per-line metadata word: escape flag + block-extent encoding.
  //   kEscaped                  irrevocable shared bit
  //   kHead | (len << 2)        first line of a line-crossing block
  //   offset << 2 (no kHead)    interior line, `offset` lines after head
  //   0 (field bits)            sub-line blocks only: the block is the line
  static constexpr std::uint16_t kEscaped = 1;
  static constexpr std::uint16_t kHead = 2;

  void escape_block(CoreId publisher, std::size_t li, std::uint32_t pc);
  void scan_line(std::size_t li, bool whole_line);
  void maybe_enqueue(std::uint64_t v);

  const Heap& heap_;
  LineEscapeSink* sink_ = nullptr;
  Addr base_ = 0;
  std::size_t stride_ = 0;       // arena_bytes + stagger, in bytes
  std::size_t arena_bytes_ = 0;
  std::size_t worker_arenas_ = 0;  // arena_count - 1 (last arena is setup)
  Addr workers_end_ = 0;           // worker_arenas_ * stride_
  Addr stride_recip_ = 0;          // floor((2^64 - 1) / stride_)
  // One word per heap line. Kernel zero pages: a run pays only for the
  // pages it touches, which at 256 cores is a sliver of the ~135 MB.
  ZeroPages<std::uint16_t> meta_;
  std::vector<Addr> work_;  // reused transitive-escape worklist
};

}  // namespace st::sim
