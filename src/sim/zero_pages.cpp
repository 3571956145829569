#include "sim/zero_pages.hpp"

#include <sys/mman.h>

#include "common/check.hpp"

namespace st::sim {

void* map_zero_pages(std::size_t bytes) {
  ST_CHECK(bytes > 0);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ST_CHECK_MSG(p != MAP_FAILED, "zero-page mapping failed");
  return p;
}

void unmap_zero_pages(void* p, std::size_t bytes) { munmap(p, bytes); }

}  // namespace st::sim
