// Observer output (DESIGN.md §10): a STAGTM_TRACE path ending in ".json"
// gets Chrome trace_event JSON for Perfetto (attempts and lock critical
// sections as spans, every other record kind as an instant; one trace "us"
// = one simulated cycle); any other path gets the binary container
// "STGOBS01" (per core, the per-kind emitted counts and the surviving
// 48-byte records) read by `stagtm-trace`. Also the post-hoc analyses.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace st::obs {

struct CoreRecords {
  /// Records emitted per kind, including those the ring dropped.
  std::array<std::uint64_t, kNumEventKinds> emitted{};
  std::vector<Record> records;  // surviving records, oldest first

  std::uint64_t total_emitted() const;
  std::uint64_t dropped() const { return total_emitted() - records.size(); }
};

struct TraceData {
  std::uint64_t cap_per_core = 0;
  std::vector<CoreRecords> per_core;

  unsigned cores() const { return static_cast<unsigned>(per_core.size()); }
  std::uint64_t total_emitted() const;
  /// Records of kind k emitted on all cores, including dropped ones.
  std::uint64_t emitted(EventKind k) const;
  /// Records of kind k that the rings dropped.
  std::uint64_t dropped(EventKind k) const;
  std::uint64_t dropped() const;
};

/// Copies the observer's surviving records out of the rings.
TraceData snapshot(const Observer& o);

/// Human-readable names for Event::arg8 / Blame::cause payloads. Indexed by
/// the raw value; out-of-range values print as "?". The orderings mirror
/// htm::AbortCause and stagger::PolicyDecision (asserted by tests).
const char* abort_cause_name(std::uint8_t cause);
const char* policy_decision_name(std::uint8_t decision);

void write_chrome_trace(const TraceData& t, std::FILE* f);

/// Reads a binary container; returns false and sets *err on a malformed
/// file (files of the retired STGTRC01/STGPRF01 formats included).
bool read_trace_file(const std::string& path, TraceData* out,
                     std::string* err);

/// Writes `t` to `path` (format by suffix, see above). Returns false and
/// sets *err when the file cannot be written.
bool export_trace(const TraceData& t, const std::string& path,
                  std::string* err);

/// Conflict graph: nodes are (allocation site, access PC) pairs — the
/// static identity of "code X touching data born at Y" — and a directed
/// edge aggressor -> victim aggregates every blame record between the two
/// with its total abort count and wasted cycles.
struct ConflictGraph {
  struct Node {
    std::uint32_t alloc_site = 0;
    std::uint32_t pc = 0;
    std::uint64_t aborts_as_victim = 0;
    std::uint64_t aborts_as_aggressor = 0;
    std::uint64_t wasted_cycles = 0;  // as victim
  };
  struct Edge {
    std::uint32_t src = 0;  // aggressor node index
    std::uint32_t dst = 0;  // victim node index
    std::uint64_t aborts = 0;
    std::uint64_t wasted_cycles = 0;
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;  // sorted by wasted_cycles, descending
};
ConflictGraph build_conflict_graph(const TraceData& t);

/// Per-lock counterfactual effectiveness (classified episodes only).
struct LockEffectiveness {
  std::uint32_t lock_idx = 0;
  std::uint64_t episodes = 0;
  std::uint64_t conflict_avoided = 0;
  std::uint64_t false_serialization = 0;
  std::uint64_t indeterminate = 0;
  std::uint64_t avoided_wait_cycles = 0;  // spent on real conflicts
  std::uint64_t false_wait_cycles = 0;    // pure cost
};
std::vector<LockEffectiveness> lock_effectiveness(const TraceData& t);

/// Provenance summary for STAGTM_JSON (observer-side fields: the CI strips
/// them before differential comparison, like wall_ms).
struct ProvSummary {
  std::uint64_t blame_records = 0;
  std::uint64_t blame_dropped = 0;
  std::uint64_t lock_episodes = 0;
  std::uint64_t episodes_dropped = 0;
  std::uint64_t conflict_avoided = 0;
  std::uint64_t false_serialization = 0;
  std::uint64_t indeterminate = 0;
  std::uint64_t avoided_wait_cycles = 0;
  std::uint64_t false_wait_cycles = 0;
  std::uint64_t wasted_cycles = 0;  // over surviving blame records
  std::uint64_t stm_blames = 0;     // surviving records with kBlameTierStm
  unsigned graph_nodes = 0;
  unsigned graph_edges = 0;
};
ProvSummary summarize_prov(const TraceData& t);

/// JSON object "{...}" with the summary fields (bench_common embeds it
/// under the excluded "prov" key).
void write_prov_summary_json(std::FILE* f, const ProvSummary& s);

}  // namespace st::obs
