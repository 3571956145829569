#include "sim/cache.hpp"

#include <bit>
#include <cstdint>

#include "common/check.hpp"

namespace st::sim {

namespace {
constexpr std::uint32_t kWordsPerHostLine = 64 / sizeof(std::uint64_t);

std::uint32_t round_up_to_host_line(std::uint32_t words) {
  return (words + kWordsPerHostLine - 1) / kWordsPerHostLine *
         kWordsPerHostLine;
}
}  // namespace

ZeroedLines::ZeroedLines(std::size_t words)
    : raw_(std::calloc(words * sizeof(std::uint64_t) + 64, 1)) {
  ST_CHECK_MSG(raw_ != nullptr, "tag array allocation failed");
  const auto p = reinterpret_cast<std::uintptr_t>(raw_.get());
  words_ = reinterpret_cast<std::uint64_t*>((p + 63) & ~std::uintptr_t{63});
}

L1Cache::L1Cache(const CacheGeometry& g)
    : sets_(g.sets()),
      ways_(g.ways),
      row_words_(round_up_to_host_line(g.ways)),
      lines_(static_cast<std::size_t>(sets_) * ways_),
      tags_(static_cast<std::size_t>(sets_) * row_words_),
      mru_(sets_, 0) {
  ST_CHECK(std::has_single_bit(sets_));
  ST_CHECK(ways_ >= 1);
}

L1Line* L1Cache::find(Addr line) {
  const std::uint32_t set = set_of(line);
  L1Line* base = lines_.data() + static_cast<std::size_t>(set) * ways_;
  // Fast path: the way that hit last time in this set, checked on the slot
  // itself (the caller reads that slot next anyway).
  L1Line* m = base + mru_[set];
  if (m->state != Coh::I && m->line == line) return m;
  const Addr* r = row(set);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (r[w] == line) {
      mru_[set] = w;
      return &base[w];
    }
  }
  return nullptr;
}

const L1Line* L1Cache::find(Addr line) const {
  const std::uint32_t set = set_of(line);
  const Addr* r = row(set);
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (r[w] == line)
      return lines_.data() + static_cast<std::size_t>(set) * ways_ + w;
  return nullptr;
}

L1Line* L1Cache::victim(Addr line) {
  const std::uint32_t set = set_of(line);
  L1Line* base = lines_.data() + static_cast<std::size_t>(set) * ways_;
  // The caller installs into the chosen slot, so it is the set's next hit.
  const Addr* r = row(set);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (r[w] == 0) {
      mru_[set] = w;
      return &base[w];
    }
  }
  // Full set: the least-recently-used non-speculative line; the LRU
  // speculative line (forcing a capacity abort) only when the whole set is
  // speculative.
  L1Line* best = base;
  for (std::uint32_t w = 1; w < ways_; ++w) {
    const L1Line& l = base[w];
    const bool l_better =
        (l.speculative() < best->speculative()) ||
        (l.speculative() == best->speculative() && l.last_use < best->last_use);
    if (l_better) best = &base[w];
  }
  mru_[set] = static_cast<std::uint32_t>(best - base);
  return best;
}

void L1Cache::check_log_invariants() const {
  for (std::size_t p = 0; p < spec_log_.size(); ++p) {
    ST_CHECK_MSG(spec_log_[p] < lines_.size(),
                 "speculative-line log entry out of range");
    const L1Line& l = lines_[spec_log_[p]];
    // A logged slot may transiently be invalid-but-marked: a cross-core
    // abort stamp invalidates the victim's written shared lines without
    // touching its marks or log (the victim drains both at its next
    // synchronizing step).
    ST_CHECK_MSG(l.speculative(), "logged slot is not speculative");
    ST_CHECK_MSG(l.log_pos == static_cast<std::int32_t>(p),
                 "speculative-line log position mismatch (duplicate entry?)");
  }
  std::size_t speculative = 0;
  for (const L1Line& l : lines_) {
    if (l.speculative())
      ++speculative;
    else
      ST_CHECK_MSG(l.log_pos == -1, "non-speculative line still logged");
  }
  ST_CHECK_MSG(speculative == spec_log_.size(),
               "speculative line not present in the log");
}

void L1Cache::check_tag_rows() const {
  for (std::uint32_t set = 0; set < sets_; ++set) {
    const Addr* r = row(set);
    const L1Line* base = lines_.data() + static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w)
      ST_CHECK_MSG(r[w] == (base[w].state != Coh::I ? base[w].line : 0),
                   "tag row disagrees with its slot");
    for (std::uint32_t w = ways_; w < row_words_; ++w)
      ST_CHECK_MSG(r[w] == 0, "tag row padding written");
  }
}

TagCache::TagCache(const CacheGeometry& g)
    : sets_(g.sets()),
      ways_(g.ways),
      block_words_(round_up_to_host_line(2 * g.ways)),
      blocks_(static_cast<std::size_t>(sets_) * block_words_),
      mru_(sets_, 0) {
  ST_CHECK(std::has_single_bit(sets_));
  ST_CHECK(ways_ >= 1);
}

bool TagCache::access(Addr line) {
  ST_CHECK(line != 0);
  std::uint64_t* tags = block(line);
  std::uint64_t* stamps = tags + ways_;
  std::uint32_t& mru = mru_[set_of(line)];
  // Fast path: the way that hit last time in this set.
  if (tags[mru] == line) {
    stamps[mru] = ++tick_;
    return true;
  }
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == line) {
      stamps[w] = ++tick_;
      mru = w;
      return true;
    }
  }
  // Miss: the first empty way, else the LRU way.
  std::uint32_t v = 0;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == 0) {
      v = w;
      break;
    }
    if (stamps[w] < stamps[v]) v = w;
  }
  tags[v] = line;
  stamps[v] = ++tick_;
  mru = v;
  return false;
}

bool TagCache::contains(Addr line) const {
  const std::uint64_t* tags = block(line);
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (tags[w] == line) return true;
  return false;
}

}  // namespace st::sim
