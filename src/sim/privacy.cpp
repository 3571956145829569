#include "sim/privacy.hpp"

#include <cstdlib>

#include "common/check.hpp"
#include "sim/heap.hpp"

namespace st::sim {

PrivacyMap::PrivacyMap(const Heap& heap)
    : heap_(heap),
      base_(Heap::kBase),
      stride_(heap.arena_stride()),
      arena_bytes_(heap.arena_bytes()),
      worker_arenas_(heap.arena_count() - 1),
      workers_end_(worker_arenas_ * stride_),
      stride_recip_(~Addr{0} / stride_),
      total_lines_(heap.total_bytes() >> kLineShift) {
  // Line-granular tracking needs line-granular geometry. kBase and the
  // stagger are line multiples by construction; arena_bytes must be too.
  ST_CHECK_MSG(arena_bytes_ % kLineBytes == 0 && stride_ % kLineBytes == 0,
               "privacy tracking needs line-multiple arena sizes");
  ST_CHECK(heap.arena_count() >= 1);
  // calloc, not new[]: pages fault in lazily, so a 256-core machine's
  // metadata (~2 bytes per heap line) costs only what the run touches.
  meta_ = static_cast<std::uint16_t*>(
      std::calloc(total_lines_, sizeof(std::uint16_t)));
  ST_CHECK_MSG(meta_ != nullptr, "privacy metadata allocation failed");
}

PrivacyMap::~PrivacyMap() { std::free(meta_); }

void PrivacyMap::on_alloc(Addr a, std::size_t cls, unsigned arena) {
  if (arena >= worker_arenas_) return;  // setup arena: always shared
  if (cls < kLineBytes) return;  // sub-line blocks: the line is the unit
  const std::size_t li = static_cast<std::size_t>((a - base_) >> kLineShift);
  const std::size_t n = cls >> kLineShift;
  if (n > kMaxBlockLines) {
    // Too large to track extent: born shared, through the normal escape
    // path, which counts and traces each line's escape like any other.
    for (std::size_t j = 0; j < n; ++j)
      escape_block(static_cast<CoreId>(arena), li + j, 0);
    return;
  }
  // Idempotent across same-class reuse; escape bits are preserved
  // (private->shared is irrevocable, even through free/realloc).
  meta_[li] = static_cast<std::uint16_t>(
      (meta_[li] & kEscaped) | kHead | (n << 2));
  for (std::size_t j = 1; j < n; ++j)
    meta_[li + j] =
        static_cast<std::uint16_t>((meta_[li + j] & kEscaped) | (j << 2));
}

void PrivacyMap::maybe_enqueue(std::uint64_t v) {
  if (private_owner(v) >= 0) work_.push_back(v);
}

void PrivacyMap::scan_line(std::size_t li, bool whole_line) {
  // Committed pointers stored anywhere in an escaping line escape their
  // targets too (the published block makes them reachable). Big-block
  // lines are scanned whole: the block was zeroed at allocation, so every
  // slot reads deterministically. Lines holding sub-line blocks scan only
  // *live* blocks — the gaps between them are untouched backing store.
  const Addr line = base_ + (static_cast<Addr>(li) << kLineShift);
  if (whole_line) {
    for (unsigned off = 0; off < kLineBytes; off += 8)
      maybe_enqueue(heap_.load(line + off, 8));
    return;
  }
  for (unsigned off = 0; off < kLineBytes; off += 8) {
    std::size_t bytes = 0;
    if (!heap_.live_block_at(line + off, &bytes)) continue;
    // Sub-line blocks never cross their line (power-of-two classes, bump
    // alignment); the cap only fires for born-shared oversized blocks,
    // whose later lines are covered by store-time publication instead.
    if (bytes > kLineBytes - off) bytes = kLineBytes - off;
    for (std::size_t s = 0; s < bytes; s += 8)
      maybe_enqueue(heap_.load(line + off + s, 8));
  }
}

void PrivacyMap::escape_block(CoreId publisher, std::size_t li,
                              std::uint32_t pc) {
  const Addr line = base_ + (static_cast<Addr>(li) << kLineShift);
  const int owner = private_owner(line);
  if (owner < 0) return;  // already shared (or raced with its own escape)
  // Resolve the containing block's extent from the per-line metadata.
  std::size_t head = li;
  std::size_t n = 1;
  bool crosses = false;
  const std::uint16_t m = meta_[li];
  if (m & kHead) {
    n = m >> 2;
    crosses = true;
  } else if ((m >> 2) != 0) {
    head = li - (m >> 2);
    n = meta_[head] >> 2;
    crosses = true;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t lj = head + j;
    if (meta_[lj] & kEscaped) continue;
    meta_[lj] |= kEscaped;
    if (sink_ != nullptr)
      sink_->on_line_escape(publisher,
                            base_ + (static_cast<Addr>(lj) << kLineShift),
                            static_cast<CoreId>(owner), pc);
    scan_line(lj, crosses);
  }
}

void PrivacyMap::publish_value(CoreId publisher, std::uint64_t v,
                               std::uint32_t pc) {
  if (private_owner(v) < 0) return;  // cheap common case: not a private ptr
  work_.clear();
  work_.push_back(v);
  while (!work_.empty()) {
    const Addr a = work_.back();
    work_.pop_back();
    escape_block(publisher, static_cast<std::size_t>((a - base_) >> kLineShift),
                 pc);
  }
}

}  // namespace st::sim
