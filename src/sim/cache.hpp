// Cache tag arrays.
//
// Data values never live in the caches (they are in sim::Heap and in the HTM
// write buffers); the caches model presence, coherence state, transactional
// read/write bits, and the per-line conflicting-PC tag of §4 of the paper.
//
// Host-side fast paths (none of which change simulated results):
//  - Every set lookup reads one 64-byte host line. The L1 keeps a packed
//    tag row per set (one Addr per way: the line when valid, 0 when I)
//    apart from the 32-byte per-line slots, so a full find() or the
//    invalid-way scan in victim() never touches a slot. L2/L3 store each
//    set (up to 14 ways) in one 64-byte block: a recency order of 4-bit
//    way indices, then one 32-bit line index per way. A zero tag is an
//    empty way; heap lines are never 0 (Heap::kBase).
//  - A per-set MRU way hint lets the common L1 re-access hit on the slot
//    itself without reading the row; an L2/L3 hit on the set's MRU way
//    reads its block and writes nothing.
//  - A per-core speculative-line log records the slot of every line on its
//    first speculative touch, so commit/abort bookkeeping walks only the
//    transaction's footprint instead of sweeping all sets × ways.
//  - Tag rows and L2/L3 blocks are calloc'd, so sets no access reaches are
//    never faulted in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "sim/types.hpp"

namespace st::sim {

/// MOESI coherence states. The directory keeps the authoritative owner /
/// sharer sets; per-line states exist in L1 only.
enum class Coh : std::uint8_t { I, S, E, O, M };

inline bool coh_can_write(Coh c) { return c == Coh::E || c == Coh::M; }

/// 32 bytes, 32-aligned: a slot never straddles two host lines.
struct alignas(32) L1Line {
  Addr line = 0;  // line-aligned address; valid iff state != I
  std::uint64_t last_use = 0;      // LRU timestamp
  std::uint32_t first_pc = 0;      // full first-access PC (ground truth)
  std::int32_t log_pos = -1;       // position in the speculative-line log
  std::uint16_t pc_tag = 0;        // truncated first-access PC (hardware view)
  Coh state = Coh::I;
  bool tx_read = false;
  bool tx_write = false;
  bool pc_tag_valid = false;

  bool speculative() const { return tx_read || tx_write; }
};
static_assert(sizeof(L1Line) == 32);

/// A zero-filled array of 64-bit words whose first word starts a 64-byte
/// host line. calloc'd, so pages no access reaches are never faulted in.
class ZeroedLines {
 public:
  explicit ZeroedLines(std::size_t words);
  std::uint64_t* data() const { return words_; }

 private:
  struct Free {
    void operator()(void* p) const { std::free(p); }
  };
  std::unique_ptr<void, Free> raw_;
  std::uint64_t* words_ = nullptr;
};

struct CacheGeometry {
  std::uint32_t size_bytes;
  std::uint32_t ways;
  std::uint32_t sets() const { return size_bytes / kLineBytes / ways; }
};

/// L1 data cache: full per-line metadata.
class L1Cache {
 public:
  explicit L1Cache(const CacheGeometry& g);

  /// Returns the line's slot if present (state != I), and makes its way the
  /// set's MRU hint.
  L1Line* find(Addr line);
  /// The same lookup as a pure read: reads the tag row only and leaves the
  /// MRU hint alone.
  const L1Line* find(Addr line) const;

  /// Chooses a victim slot in `line`'s set: an invalid way if any, else the
  /// LRU way, preferring non-speculative lines over speculative ones.
  /// Never returns null.
  L1Line* victim(Addr line);

  /// Fills slot `l` (from victim(line)) with `line` in coherence state
  /// `state` (not I), resetting every other field. With invalidate(), the
  /// only way a slot enters or leaves I, so the tag row stays exact.
  L1Line& install(L1Line& l, Addr line, Coh state) {
    ST_CHECK(line != 0 && state != Coh::I);
    l = L1Line{};
    l.line = line;
    l.state = state;
    tag_of(l) = line;
    return l;
  }

  /// Drops `l` to I. Its speculative marks and log entry stay: a
  /// cross-core abort stamp invalidates lines the victim drains later.
  void invalidate(L1Line& l) {
    l.state = Coh::I;
    tag_of(l) = 0;
  }

  void touch(L1Line& l) { l.last_use = ++tick_; }
  /// `n` touches of `l` at once; a null `l` (the line has left) only
  /// advances the LRU clock. An invalid slot's stamp is never read: victim()
  /// takes the first invalid way, and an install resets the slot.
  void touch_n(L1Line* l, std::uint64_t n) {
    tick_ += n;
    if (l != nullptr) l->last_use = tick_;
  }

  /// Marks `l` transactionally read (or written); on its first speculative
  /// touch the line is appended to the speculative-line log. All speculative
  /// bits must be set through here so the log stays exact.
  void mark_speculative(L1Line& l, bool write) {
    if (!l.speculative()) {
      l.log_pos = static_cast<std::int32_t>(spec_log_.size());
      spec_log_.push_back(slot_of(l));
      if (spec_log_.size() > spec_log_hwm_) spec_log_hwm_ = spec_log_.size();
    }
    if (write)
      l.tx_write = true;
    else
      l.tx_read = true;
  }

  /// Invokes `fn(L1Line&)` on every speculative line in slot (set-major)
  /// order — the exact order a full tag-array sweep would visit them — then
  /// clears all speculative state and empties the log. `fn` sees each line
  /// with its transactional bits still set, may invalidate() it, and must
  /// not touch the log.
  template <typename Fn>
  void drain_speculative(Fn&& fn) {
    std::sort(spec_log_.begin(), spec_log_.end());
    for (const std::uint32_t idx : spec_log_) {
      L1Line& l = lines_[idx];
      fn(l);
      l.tx_read = l.tx_write = false;
      l.pc_tag_valid = false;
      l.log_pos = -1;
    }
    spec_log_.clear();
#ifndef NDEBUG
    // Differential cross-check against the pre-log implementation: a full
    // sweep must agree that no speculative line survived the drain.
    for (const L1Line& l : lines_)
      ST_CHECK_MSG(!l.speculative(),
                   "speculative line missed by the speculative-line log");
#endif
  }

  /// Invokes `fn(L1Line&)` on every speculative line in slot order without
  /// clearing speculative state or the log. `fn` may invalidate() the line
  /// but must not touch the speculative bits or the log. Sorts the log in
  /// place (a host-side reordering only; positions are repaired).
  template <typename Fn>
  void for_each_speculative(Fn&& fn) {
    sort_log();
    for (const std::uint32_t idx : spec_log_) fn(lines_[idx]);
  }

  /// Number of currently speculative lines — O(1) via the log.
  std::size_t speculative_line_count() const { return spec_log_.size(); }

  /// Largest read/write-set footprint (in lines) seen so far.
  std::size_t spec_log_high_water() const { return spec_log_hwm_; }

  /// Aborts the process unless the log and the tag array agree: every
  /// logged slot is speculative, every speculative slot is logged at its
  /// recorded position, and the log holds no duplicates.
  void check_log_invariants() const;

  /// Aborts the process unless every slot's tag-row entry is
  /// `state != I ? line : 0` and every padding entry is 0.
  void check_tag_rows() const;

  /// Invoke `fn(L1Line&)` on every valid line.
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& l : lines_)
      if (l.state != Coh::I) fn(l);
  }

  /// Invoke `fn(const L1Line&)` on every valid line.
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& l : lines_)
      if (l.state != Coh::I) fn(l);
  }

  /// Invoke `fn(const L1Line&)` on every slot, valid or not. Differential
  /// sweeps need this: speculative marks outlive coherence validity on a
  /// victim stamped by a cross-core abort (they drain at its own next
  /// synchronizing step).
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (const auto& l : lines_) fn(l);
  }

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }

 private:
  std::uint32_t set_of(Addr line) const {
    return static_cast<std::uint32_t>(line_index(line)) & (sets_ - 1);
  }
  std::uint32_t slot_of(const L1Line& l) const {
    return static_cast<std::uint32_t>(&l - lines_.data());
  }
  /// The set's tag row: `ways_` entries, padded to whole host lines.
  Addr* row(std::uint32_t set) {
    return tags_.data() + static_cast<std::size_t>(set) * row_words_;
  }
  const Addr* row(std::uint32_t set) const {
    return tags_.data() + static_cast<std::size_t>(set) * row_words_;
  }
  /// The tag-row entry of `l`, a slot holding `l.line` (valid or not).
  Addr& tag_of(const L1Line& l) {
    const std::uint32_t set = set_of(l.line);
    const std::uint32_t way = slot_of(l) - set * ways_;
    ST_CHECK_MSG(way < ways_, "slot outside its line's set");
    return row(set)[way];
  }

  /// Sorts the log into slot order and repairs the lines' log positions.
  void sort_log() {
    std::sort(spec_log_.begin(), spec_log_.end());
    for (std::size_t p = 0; p < spec_log_.size(); ++p)
      lines_[spec_log_[p]].log_pos = static_cast<std::int32_t>(p);
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t row_words_;         // ways_ rounded up to a host line
  std::vector<L1Line> lines_;       // sets_ * ways_, set-major
  ZeroedLines tags_;                // sets_ tag rows
  std::vector<std::uint32_t> mru_;  // per-set most-recently-hit way
  std::vector<std::uint32_t> spec_log_;  // slots of speculative lines
  std::size_t spec_log_hwm_ = 0;
  std::uint64_t tick_ = 0;
};

/// Tag-only cache used to model L2/L3 hit latency. Presence is tracked with
/// LRU replacement; no coherence state is needed at these levels because the
/// directory is authoritative.
///
/// Each set is one block: word 0 holds the recency order, the way index of
/// rank r (0 = most recently used) in bits 4r..4r+3, then come `ways` 32-bit
/// line indices, 0 for an empty way. Ways fill in index order and no line
/// ever leaves except by replacement, so the valid ways are a prefix and
/// ranks 0..valid-1 are a permutation of them (higher ranks read 0). Moving
/// the accessed way to rank 0 on every access keeps the least recently used
/// way last: exactly the way with the smallest LRU stamp.
class TagCache {
 public:
  /// The recency order holds one 4-bit way index per rank.
  static constexpr std::uint32_t kMaxWays = 16;

  explicit TagCache(const CacheGeometry& g);

  /// Looks up `line`; if absent, inserts it (evicting LRU). Returns whether
  /// it was a hit before the insertion.
  bool access(Addr line);

  bool contains(Addr line) const;

 private:
  /// `line`'s index, the stored tag. A wider index would alias when
  /// truncated, so it must fit in 32 bits; 0 is the empty way.
  static std::uint32_t tag_of(Addr line) {
    const Addr idx = line_index(line);
    ST_CHECK_MSG(idx != 0, "line 0 marks an empty way");
    ST_CHECK_MSG((idx >> 32) == 0, "line index does not fit a 32-bit tag");
    return static_cast<std::uint32_t>(idx);
  }
  std::uint64_t* block(std::uint32_t tag) const {
    return blocks_.data() +
           static_cast<std::size_t>(tag & (sets_ - 1)) * block_words_;
  }
  static std::uint32_t* tags(std::uint64_t* block) {
    return reinterpret_cast<std::uint32_t*>(block + 1);
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t block_words_;  // order + ways_ tags, rounded up to a host line
  // The L2s and the L3 are ~3 MB at 16 cores, most of it untouched by a
  // short simulation; ZeroedLines leaves those pages unfaulted.
  ZeroedLines blocks_;
};

}  // namespace st::sim
