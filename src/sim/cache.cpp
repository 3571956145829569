#include "sim/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace st::sim {

L1Cache::L1Cache(const CacheGeometry& g) : sets_(g.sets()), ways_(g.ways) {
  ST_CHECK(std::has_single_bit(sets_));
  ST_CHECK(ways_ >= 1);
  lines_.resize(static_cast<std::size_t>(sets_) * ways_);
  mru_.resize(sets_, 0);
}

L1Line* L1Cache::find(Addr line) {
  const std::uint32_t set = set_of(line);
  L1Line* base = lines_.data() + static_cast<std::size_t>(set) * ways_;
  // Fast path: the way that hit last time in this set.
  L1Line* m = base + mru_[set];
  if (m->state != Coh::I && m->line == line) return m;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].state != Coh::I && base[w].line == line) {
      mru_[set] = w;
      return &base[w];
    }
  }
  return nullptr;
}

const L1Line* L1Cache::find(Addr line) const {
  return const_cast<L1Cache*>(this)->find(line);
}

L1Line* L1Cache::victim(Addr line) {
  const std::uint32_t set = set_of(line);
  L1Line* base = lines_.data() + static_cast<std::size_t>(set) * ways_;
  L1Line* best = nullptr;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    L1Line& l = base[w];
    if (l.state == Coh::I) {
      best = &l;
      break;
    }
    // Prefer the least-recently-used non-speculative line; fall back to the
    // LRU speculative line (forcing a capacity abort) only when the whole
    // set is speculative.
    if (best == nullptr) {
      best = &l;
      continue;
    }
    const bool l_better =
        (l.speculative() < best->speculative()) ||
        (l.speculative() == best->speculative() && l.last_use < best->last_use);
    if (l_better) best = &l;
  }
  // The caller installs into this slot, so it is the set's next hit.
  mru_[set] = static_cast<std::uint32_t>(best - base);
  return best;
}

bool L1Cache::set_full_of_speculative(Addr line) const {
  const L1Line* base =
      lines_.data() + static_cast<std::size_t>(set_of(line)) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (base[w].state == Coh::I || !base[w].speculative()) return false;
  return true;
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

TagCache::TagCache(const CacheGeometry& g) : sets_(g.sets()), ways_(g.ways) {
  ST_CHECK(std::has_single_bit(sets_));
  ST_CHECK(ways_ >= 1);
  slots_.reset(static_cast<Slot*>(
      std::calloc(static_cast<std::size_t>(sets_) * ways_, sizeof(Slot))));
  ST_CHECK_MSG(slots_ != nullptr, "tag array allocation failed");
  mru_.resize(sets_, 0);
}

bool TagCache::access(Addr line) {
  const std::uint32_t set = set_of(line);
  Slot* base = slots_.get() + static_cast<std::size_t>(set) * ways_;
  // Fast path: the way that hit last time in this set.
  Slot* m = base + mru_[set];
  if (m->valid && m->line == line) {
    m->last_use = ++tick_;
    return true;
  }
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].line == line) {
      base[w].last_use = ++tick_;
      mru_[set] = w;
      return true;
    }
  }
  Slot* victim = &base[0];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Slot& s = base[w];
    if (!s.valid) {
      victim = &s;
      break;
    }
    if (victim->valid && s.last_use < victim->last_use) victim = &s;
  }
  victim->line = line;
  victim->valid = true;
  victim->last_use = ++tick_;
  mru_[set] = static_cast<std::uint32_t>(victim - base);
  return false;
}

bool TagCache::contains(Addr line) const {
  const Slot* base = slots_.get() + static_cast<std::size_t>(set_of(line)) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (base[w].valid && base[w].line == line) return true;
  return false;
}

}  // namespace st::sim
