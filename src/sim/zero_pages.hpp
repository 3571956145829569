// Large, sparsely used, zero-initialised host regions.
//
// The simulated heap's backing store (one arena per core plus the setup
// arena, ~285 MB at 16 cores) and its per-line privacy metadata (~9 MB) are
// sized for the whole address space, yet a run touches a small part of
// either. ZeroPages maps them as anonymous private memory, so the kernel
// supplies zero pages on first touch and untouched pages cost nothing.
// calloc gives no such guarantee: once glibc's mmap threshold has risen
// to the largest block freed so far (up to 32 MB), every later machine in
// the process gets its table from recycled heap, and calloc clears every
// byte of it.
//
// Dense tables that a run reads all over (the cache tag arrays,
// sim/cache.hpp) stay on the allocator: fresh mappings for them cost more in
// first-touch faults during the run than they save at construction
// (EXPERIMENTS, "Construction without zero-fill (host time)").
#pragma once

#include <cstddef>
#include <type_traits>

namespace st::sim {

/// Maps `bytes` (> 0) of zero-filled anonymous memory, reserving no swap;
/// ST_CHECKs that the mapping succeeded.
void* map_zero_pages(std::size_t bytes);
void unmap_zero_pages(void* p, std::size_t bytes);

/// `count` zero-valued `T`s on kernel zero pages, unmapped on destruction.
template <typename T>
class ZeroPages {
  // All-zero bytes must be a valid T, and nothing runs on unmapping.
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit ZeroPages(std::size_t count)
      : data_(static_cast<T*>(map_zero_pages(count * sizeof(T)))),
        count_(count) {}
  ~ZeroPages() { unmap_zero_pages(data_, count_ * sizeof(T)); }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  T* data_;
  std::size_t count_;
};

}  // namespace st::sim
