// Simulated flat memory with per-core allocation arenas.
//
// The heap is the single source of truth for committed data values.  The
// cache hierarchy (sim/cache.hpp) tracks only metadata; speculative stores
// are buffered by the HTM layer and drained here on commit.
//
// Each core allocates from its own arena, mirroring the per-thread behaviour
// of the Lockless allocator used in the paper (so unrelated threads'
// allocations do not share cache lines by accident).  That same arena
// discipline is what defines per-line privacy (sim/privacy.hpp): a worker
// arena's lines belong to exactly one core until their addresses are
// published. The heap therefore owns the PrivacyMap and seeds it on every
// allocation; nothing else creates one.
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "sim/dir_map.hpp"
#include "sim/privacy.hpp"
#include "sim/types.hpp"

namespace st::sim {

class Heap {
 public:
  /// Lowest simulated address; everything below is invalid (so small
  /// integers never look like heap pointers).
  static constexpr Addr kBase = 0x10000;

  /// `arenas` is the number of independent allocation arenas: one per core
  /// (arena i belongs to core i) plus the shared setup arena, always the
  /// last. `arena_bytes`, the capacity of each, is a multiple of the line.
  Heap(unsigned arenas, std::size_t arena_bytes);

  /// Allocate `size` bytes in `arena`, aligned to `align` (power of two,
  /// >= 8). Returns the simulated address. Never returns 0. Exhausting an
  /// arena raises a simulated-OOM failure naming the arena. `site` is the
  /// allocation-site PC (0 = unknown); it is recorded per line only when
  /// site tracking is on (a host-side observability aid, see below).
  Addr alloc(unsigned arena, std::size_t size, std::size_t align = 8,
             std::uint32_t site = 0);

  /// Allocate on a fresh cache line (used for lock words and other data
  /// where false sharing must be avoided by construction).
  Addr alloc_line_aligned(unsigned arena, std::size_t size);

  /// Return a block obtained from alloc(). Size is remembered internally.
  void dealloc(Addr a);

  /// Non-aborting variant for frees issued by the *simulated program* (the
  /// HTM Free paths): a corrupted execution under a deliberately-broken
  /// build (checker mode) can double-free or free a wild address, and that
  /// must surface as a reportable verdict, not kill the host process.
  /// Returns false and bumps invalid_frees() when `a` is not a live block.
  bool try_dealloc(Addr a);
  std::uint64_t invalid_frees() const { return invalid_frees_; }

  /// Raw value access; size in {1,2,4,8}; `a` must be size-aligned and not
  /// cross a cache line. Loads of never-stored memory return 0. Inline: the
  /// simulator makes about one per simulated access, most of them 8 bytes
  /// wide, so that width takes a fixed-size copy.
  std::uint64_t load(Addr a, unsigned size) const {
    ST_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
    ST_CHECK_MSG(a % size == 0, "unaligned simulated load");
    const std::byte* p = backing(a);
    std::uint64_t v = 0;
    if (size == 8)
      std::memcpy(&v, p, 8);
    else
      std::memcpy(&v, p, size);
    return v;
  }
  void store(Addr a, std::uint64_t v, unsigned size) {
    ST_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
    ST_CHECK_MSG(a % size == 0, "unaligned simulated store");
    std::byte* p = backing(a);
    if (size == 8)
      std::memcpy(p, &v, 8);
    else
      std::memcpy(p, &v, size);
  }

  bool contains(Addr a) const;
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t live_blocks() const { return block_sizes_.size(); }

  /// The arena index reserved for single-threaded setup code.
  unsigned setup_arena() const { return arena_count_ - 1; }

  // --- Geometry accessors (privacy tracking derives its line map here) ---
  unsigned arena_count() const { return arena_count_; }
  std::size_t arena_bytes() const { return arena_bytes_; }
  /// Distance between consecutive arena bases (arena_bytes + the
  /// anti-aliasing stagger).
  std::size_t arena_stride() const { return arena_bytes_ + kStagger; }
  std::size_t total_bytes() const { return mem_size_; }

  /// If a live block *starts* at `a`, writes its (class-rounded) byte size
  /// to `*bytes` and returns true. Used by the privacy map's transitive
  /// escape scan to read only deterministic (allocated) memory.
  bool live_block_at(Addr a, std::size_t* bytes) const {
    const std::uint32_t* p = block_sizes_.find(a);
    if (p == nullptr) return false;
    *bytes = std::size_t{1} << (*p & 0xFF);
    return true;
  }

  /// The per-line privacy map of this heap's worker arenas; alloc() reports
  /// every block's extent to it (PrivacyMap::on_alloc).
  PrivacyMap& privacy() { return priv_; }
  const PrivacyMap& privacy() const { return priv_; }

  // --- Allocation-site tracking (conflict provenance, obs/observer.hpp) ---
  /// When on, alloc() records its `site` PC for every line of the block
  /// (capped at kMaxSiteLines per block) so abort attribution can name the
  /// allocation site of a conflicting line. Off by default: the map costs
  /// memory and is a pure observability aid — nothing simulated reads it.
  void set_site_tracking(bool on) { track_sites_ = on; }
  /// Allocation-site PC recorded for the line containing `a`, or 0 when
  /// unknown (tracking off, line past the per-block cap, or a block freed
  /// and re-carved — entries are overwritten at re-allocation, not erased).
  std::uint32_t alloc_site_for(Addr a) const {
    if (!track_sites_) return 0;
    const std::uint32_t* p = line_sites_.find(a & ~static_cast<Addr>(kLineBytes - 1));
    return p == nullptr ? 0 : *p;
  }
  /// The arena a heap address belongs to, or -1 for foreign addresses.
  /// Pure base/stride arithmetic (arenas are fixed at construction).
  int arena_of(Addr a) const {
    if (a < kBase || a >= kBase + mem_size_) return -1;
    const std::size_t idx =
        static_cast<std::size_t>(a - kBase) / arena_stride();
    return a < arenas_[idx].base + arena_bytes_ ? static_cast<int>(idx) : -1;
  }

 private:
  // Arena starts are staggered by 67 lines each (67 is coprime to any
  // power-of-two set count): with naive 2^k-aligned bases, objects at equal
  // offsets in different arenas alias into the same L1 set, and a structure
  // whose nodes were allocated by many threads overflows one set and aborts
  // on capacity instead of conflicts.
  static constexpr Addr kStagger = 67 * kLineBytes;
  /// Site recording stops after this many lines of one block: a huge array
  /// has one interesting birth site, not thousands of map entries.
  static constexpr std::size_t kMaxSiteLines = 64;
  // Size classes are powers of two in [8, 2^(kMaxClassBits-1)]; free lists
  // are bucketed by log2(class).
  static constexpr unsigned kMaxClassBits = 48;

  struct Arena {
    Addr base = 0;
    Addr brk = 0;
    Addr limit = 0;
    std::array<std::vector<Addr>, kMaxClassBits> free_lists;
  };

  std::byte* backing(Addr a) {
    ST_CHECK_MSG(a >= kBase && a < kBase + mem_size_,
                 "wild simulated address");
    return mem_.get() + (a - kBase);
  }
  const std::byte* backing(Addr a) const {
    ST_CHECK_MSG(a >= kBase && a < kBase + mem_size_,
                 "wild simulated address");
    return mem_.get() + (a - kBase);
  }
  static std::size_t size_class(std::size_t size);
  [[noreturn]] void oom_fail(unsigned arena, std::size_t size,
                             std::size_t cls) const;

  unsigned arena_count_;
  std::size_t arena_bytes_;
  std::vector<Arena> arenas_;
  // Uninitialized on purpose: every block is zeroed when allocated, so the
  // backing store never needs the (expensive) whole-arena clear.
  std::unique_ptr<std::byte[]> mem_;
  std::size_t mem_size_;
  // addr -> arena<<24 | log2(class); open-addressed (alloc/dealloc is on
  // every workload's hot path). Block addresses are 8-aligned, hence the
  // shift-3 key. The packed value is never 0 (log2(class) >= 3), so a
  // default-constructed slot from get_or_insert is distinguishable.
  LineMap<std::uint32_t, 3> block_sizes_;
  // line addr -> allocation-site PC; populated only under site tracking.
  // Lines are 64-byte aligned, hence the shift-6 key.
  LineMap<std::uint32_t, 6> line_sites_;
  std::size_t bytes_allocated_ = 0;
  std::uint64_t invalid_frees_ = 0;
  bool track_sites_ = false;
  PrivacyMap priv_;  // last: built from the geometry above
};

}  // namespace st::sim
