// Deferred-write buffer: the HTM write buffer and the STM redo log.
//
// Stores are buffered as byte-masked 8-byte chunks keyed by addr >> 3, laid
// over committed heap bytes on reads, and merged into them at commit. The
// container is an unordered_map on purpose: the STM writeback issues one
// plain store per chunk in the map's order, so that order reaches the
// caches and is part of the simulated result.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/heap.hpp"
#include "sim/types.hpp"

namespace st::sim {

class WriteBuffer {
 public:
  bool empty() const { return chunks_.empty(); }
  /// Drops every buffered byte. The map keeps its buckets, so a
  /// transaction's chunk order depends on this buffer's history as well as
  /// on its own stores: each core reuses one buffer across transactions.
  void clear() { chunks_.clear(); }
  /// True when some byte of `a`'s 8-byte chunk is buffered.
  bool holds(Addr a) const { return chunks_.count(a >> 3) != 0; }

  /// `v`, the committed value of the `size` bytes at `a`, with the
  /// buffered ones among them laid over it.
  std::uint64_t overlay(Addr a, unsigned size, std::uint64_t v) const {
    const auto it = chunks_.find(a >> 3);
    if (it == chunks_.end()) return v;
    return merge(v, it->second, static_cast<unsigned>(a & 7), size);
  }

  /// Buffers the low `size` bytes of `v` at `a` (inside one chunk).
  void put(Addr a, std::uint64_t v, unsigned size) {
    Chunk& ch = chunks_[a >> 3];
    const unsigned off = static_cast<unsigned>(a & 7);
    for (unsigned i = 0; i < size; ++i) {
      const std::uint64_t byte = (v >> (8 * i)) & 0xFF;
      ch.data = (ch.data & ~(std::uint64_t{0xFF} << (8 * (off + i)))) |
                (byte << (8 * (off + i)));
      ch.mask |= static_cast<std::uint8_t>(1u << (off + i));
    }
  }

  /// Calls `fn(base, merged)` once per buffered chunk, in the map's order:
  /// `merged` is the heap's 8 committed bytes at `base`, read just before
  /// the call, with the buffered bytes laid over them. `fn` may store to
  /// the heap.
  template <typename Fn>
  void drain(const Heap& heap, Fn&& fn) const {
    for (const auto& [chunk, ch] : chunks_) {
      const Addr base = chunk << 3;
      fn(base, merge(heap.load(base, 8), ch, 0, 8));
    }
  }

  /// Clears `out` and fills it with the distinct lines holding buffered
  /// bytes, sorted ascending.
  void lines(std::vector<Addr>& out) const {
    out.clear();
    for (const auto& [chunk, ch] : chunks_) {
      (void)ch;
      out.push_back(line_addr(chunk << 3));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

 private:
  struct Chunk {
    std::uint64_t data = 0;
    std::uint8_t mask = 0;  // bit i set => byte i is buffered
  };

  /// `v` with its byte i replaced by the chunk's byte off + i wherever that
  /// one is buffered, for i < size.
  static std::uint64_t merge(std::uint64_t v, const Chunk& ch, unsigned off,
                             unsigned size) {
    for (unsigned i = 0; i < size; ++i) {
      if (ch.mask & (1u << (off + i))) {
        const std::uint64_t byte = (ch.data >> (8 * (off + i))) & 0xFF;
        v = (v & ~(std::uint64_t{0xFF} << (8 * i))) | (byte << (8 * i));
      }
    }
    return v;
  }

  std::unordered_map<Addr, Chunk> chunks_;  // keyed by addr >> 3
};

}  // namespace st::sim
