// Metrics registry.
//
// One table naming every CoreStats counter and histogram, so consumers
// (MachineStats::total(), the STAGTM_JSON writer, tests) iterate the full
// metric set generically instead of hand-listing fields — adding a counter
// to CoreStats plus one registry row makes it appear everywhere. A test
// checks that the registry covers every byte of CoreStats, so a field
// without a row cannot go unnoticed.
#pragma once

#include <cstdio>
#include <vector>

#include "sim/stats.hpp"

namespace st::obs {

enum class Merge : std::uint8_t {
  kSum,  // volume counters: total = sum over cores
  kMax,  // peaks (e.g. spec_log_hwm): total = max over cores
};

struct CounterDef {
  const char* name;
  std::uint64_t sim::CoreStats::* member;
  Merge merge;
};

struct HistDef {
  const char* name;
  Log2Hist sim::CoreStats::* member;
};

const std::vector<CounterDef>& counter_registry();
const std::vector<HistDef>& hist_registry();

/// Merges `c` into `into` following each counter's merge rule and summing
/// histograms; MachineStats::total() folds every core through it.
void merge_core_stats(sim::CoreStats& into, const sim::CoreStats& c);

/// Serializes one CoreStats as a JSON object body (no surrounding braces):
/// every registered counter, then a "hists" object with count/sum/max/mean
/// and the log2 bucket array (trailing zero buckets trimmed) per histogram.
void write_core_stats_json(std::FILE* f, const sim::CoreStats& cs);

}  // namespace st::obs
