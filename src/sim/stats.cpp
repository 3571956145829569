#include "sim/stats.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace st::sim {

CoreStats MachineStats::total() const {
  CoreStats t;
  for (const auto& c : per_core_) obs::merge_core_stats(t, c);
  return t;
}

void MachineStats::record_abort(const AbortRecord& r) {
  if (abort_trace_.size() < kTraceCap)
    abort_trace_.push_back(r);
  else
    ++abort_trace_dropped_;
}

namespace {
template <typename Key, typename Get>
double topk_fraction(const std::vector<AbortRecord>& trace, Get get,
                     unsigned k) {
  if (trace.empty()) return 0.0;
  std::unordered_map<Key, std::uint64_t> freq;
  for (const auto& r : trace) ++freq[get(r)];
  std::vector<std::uint64_t> counts;
  counts.reserve(freq.size());
  for (const auto& [key, v] : freq) {
    (void)key;
    counts.push_back(v);
  }
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < k && i < counts.size(); ++i) sum += counts[i];
  return static_cast<double>(sum) / static_cast<double>(trace.size());
}
}  // namespace

double MachineStats::locality_guarded(double value) const {
  if (abort_trace_dropped_ > 0) {
    // Warn once per process (runner workers may hit this concurrently):
    // the locality metrics are now estimated from the first kTraceCap
    // aborts only, and the bench tables should not be trusted blindly.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "warning: abort trace truncated (%llu records dropped "
                   "past the %zu-entry cap); LA/LP locality metrics are "
                   "computed from a partial trace\n",
                   static_cast<unsigned long long>(abort_trace_dropped_),
                   kTraceCap);
    }
  }
  return value;
}

double MachineStats::conflict_addr_locality() const {
  return locality_guarded(topk_fraction<Addr>(
      abort_trace_, [](const AbortRecord& r) { return r.conflict_line; }, 1));
}

double MachineStats::conflict_pc_locality() const {
  return locality_guarded(topk_fraction<std::uint32_t>(
      abort_trace_, [](const AbortRecord& r) { return r.true_first_pc; }, 3));
}

void MachineStats::clear() {
  for (auto& c : per_core_) c = CoreStats{};
  abort_trace_.clear();
  abort_trace_dropped_ = 0;
}

}  // namespace st::sim
