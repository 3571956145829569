#include "sim/heap.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace st::sim {

Heap::Heap(unsigned arenas, std::size_t arena_bytes)
    : arena_count_(arenas),
      arena_bytes_(arena_bytes),
      mem_size_(static_cast<std::size_t>(arenas) * (arena_bytes + kStagger)),
      mem_(mem_size_),
      priv_(*this) {
  ST_CHECK(arenas >= 1);
  ST_CHECK(arena_bytes >= kLineBytes);
  arenas_.resize(arenas);
  for (unsigned i = 0; i < arenas; ++i) {
    arenas_[i].base = kBase + static_cast<Addr>(i) * (arena_bytes + kStagger);
    arenas_[i].brk = arenas_[i].base;
    arenas_[i].limit = arenas_[i].base + arena_bytes;
  }
}

std::size_t Heap::size_class(std::size_t size) {
  if (size < 8) size = 8;
  return std::bit_ceil(size);
}

void Heap::oom_fail(unsigned arena, std::size_t size, std::size_t cls) const {
  // A distinct, greppable verdict: arena exhaustion is a property of the
  // simulated configuration (arena_bytes too small for the workload), not a
  // simulator bug, so name the arena and the request that tipped it over.
  std::fprintf(stderr,
               "simulated OOM: arena %u exhausted allocating %zu bytes "
               "(class %zu, %zu/%zu bytes live across all arenas)\n",
               arena, size, cls, bytes_allocated_,
               static_cast<std::size_t>(arena_count_) * arena_bytes_);
  std::abort();
}

Addr Heap::alloc(unsigned arena, std::size_t size, std::size_t align,
                 std::uint32_t site) {
  ST_CHECK(arena < arena_count_);
  ST_CHECK(size > 0);
  ST_CHECK(std::has_single_bit(align) && align >= 8);
  const std::size_t cls = size_class(size < align ? align : size);
  const unsigned bits = static_cast<unsigned>(std::countr_zero(cls));
  ST_CHECK(bits < kMaxClassBits);
  Arena& ar = arenas_[arena];
  std::vector<Addr>& fl = ar.free_lists[bits];
  Addr a;
  if (!fl.empty()) {
    a = fl.back();
    fl.pop_back();
  } else {
    // Size classes are powers of two >= 8, so bumping by the class keeps
    // every block aligned to min(class, line) as long as the arena base is
    // line-aligned (it is: kBase and arena_bytes are line multiples).
    Addr aligned = (ar.brk + (cls - 1)) & ~static_cast<Addr>(cls - 1);
    if (cls >= kLineBytes) aligned = (ar.brk + (kLineBytes - 1)) & ~(kLineBytes - 1);
    if (aligned + cls > ar.limit) oom_fail(arena, size, cls);
    ar.brk = aligned + cls;
    a = aligned;
  }
  std::uint32_t& slot = block_sizes_.get_or_insert(a);
  ST_CHECK(slot == 0);  // 0 = fresh slot: packed values have bits >= 3
  slot = static_cast<std::uint32_t>((arena << 24) | bits);
  bytes_allocated_ += cls;
  // Fresh blocks read as zero.
  std::memset(backing(a), 0, cls);
  if (track_sites_) {
    // Overwrite (never erase) so a re-carved block's lines point at their
    // newest birth site; dealloc leaves entries stale on purpose.
    const Addr first = a & ~static_cast<Addr>(kLineBytes - 1);
    const Addr last = (a + cls - 1) & ~static_cast<Addr>(kLineBytes - 1);
    std::size_t lines = 0;
    for (Addr l = first; l <= last && lines < kMaxSiteLines;
         l += kLineBytes, ++lines)
      line_sites_.get_or_insert(l) = site;
  }
  priv_.on_alloc(a, cls, arena);
  return a;
}

Addr Heap::alloc_line_aligned(unsigned arena, std::size_t size) {
  return alloc(arena, size < kLineBytes ? kLineBytes : size, kLineBytes);
}

void Heap::dealloc(Addr a) {
  ST_CHECK_MSG(try_dealloc(a), "dealloc of unknown block");
}

bool Heap::try_dealloc(Addr a) {
  const std::uint32_t* p = block_sizes_.find(a);
  if (p == nullptr) {
    ++invalid_frees_;
    return false;
  }
  const unsigned arena = *p >> 24;
  const unsigned bits = *p & 0xFF;
  block_sizes_.erase(a);  // invalidates p
  bytes_allocated_ -= std::size_t{1} << bits;
  // A block always returns to its own arena's free list, whichever core
  // issued the free: line->arena ownership is a birth property.
  arenas_[arena].free_lists[bits].push_back(a);
  return true;
}

bool Heap::contains(Addr a) const {
  return a >= kBase && a < kBase + mem_size_;
}

}  // namespace st::sim
