#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>

#include "sim/machine.hpp"
#include "sim/privacy.hpp"

namespace st::obs {

using sim::CoreStats;

namespace {

void write_hist_json(std::FILE* f, const Log2Hist& h) {
  std::fprintf(f,
               "{\"count\": %" PRIu64 ", \"sum\": %" PRIu64 ", \"max\": %" PRIu64
               ", \"mean\": %.6g, \"buckets\": [",
               h.samples, h.sum, h.max, h.mean());
  unsigned last = 0;
  for (unsigned i = 0; i < Log2Hist::kBuckets; ++i)
    if (h.buckets[i] != 0) last = i + 1;
  for (unsigned i = 0; i < last; ++i)
    std::fprintf(f, "%s%" PRIu64, i == 0 ? "" : ", ", h.buckets[i]);
  std::fprintf(f, "]}");
}

}  // namespace

const std::vector<CounterDef>& counter_registry() {
  static const std::vector<CounterDef> kCounters = {
      {"commits", &CoreStats::commits, Merge::kSum},
      {"aborts_conflict", &CoreStats::aborts_conflict, Merge::kSum},
      {"aborts_capacity", &CoreStats::aborts_capacity, Merge::kSum},
      {"aborts_explicit", &CoreStats::aborts_explicit, Merge::kSum},
      {"aborts_glock", &CoreStats::aborts_glock, Merge::kSum},
      {"irrevocable_entries", &CoreStats::irrevocable_entries, Merge::kSum},
      {"stm_commits", &CoreStats::stm_commits, Merge::kSum},
      {"stm_aborts_validation", &CoreStats::stm_aborts_validation,
       Merge::kSum},
      {"stm_aborts_lock", &CoreStats::stm_aborts_lock, Merge::kSum},
      {"stm_aborts_glock", &CoreStats::stm_aborts_glock, Merge::kSum},
      {"stm_orec_waits", &CoreStats::stm_orec_waits, Merge::kSum},
      {"stm_lock_acquires", &CoreStats::stm_lock_acquires, Merge::kSum},
      {"cycles_useful_tx", &CoreStats::cycles_useful_tx, Merge::kSum},
      {"cycles_wasted_tx", &CoreStats::cycles_wasted_tx, Merge::kSum},
      {"cycles_lock_wait", &CoreStats::cycles_lock_wait, Merge::kSum},
      {"cycles_backoff", &CoreStats::cycles_backoff, Merge::kSum},
      {"cycles_irrevocable", &CoreStats::cycles_irrevocable, Merge::kSum},
      {"cycles_nontx", &CoreStats::cycles_nontx, Merge::kSum},
      {"tx_instrs", &CoreStats::tx_instrs, Merge::kSum},
      {"tx_mem_ops", &CoreStats::tx_mem_ops, Merge::kSum},
      {"interp_instrs", &CoreStats::interp_instrs, Merge::kSum},
      {"alp_executed", &CoreStats::alp_executed, Merge::kSum},
      {"alp_acquires", &CoreStats::alp_acquires, Merge::kSum},
      {"alp_timeouts", &CoreStats::alp_timeouts, Merge::kSum},
      {"anchor_id_correct", &CoreStats::anchor_id_correct, Merge::kSum},
      {"anchor_id_wrong", &CoreStats::anchor_id_wrong, Merge::kSum},
      {"l1_hits", &CoreStats::l1_hits, Merge::kSum},
      {"l1_misses", &CoreStats::l1_misses, Merge::kSum},
      {"dir_probes", &CoreStats::dir_probes, Merge::kSum},
      {"spec_log_hwm", &CoreStats::spec_log_hwm, Merge::kMax},
      {"priv_hits", &CoreStats::priv_hits, Merge::kSum},
      {"priv_misses", &CoreStats::priv_misses, Merge::kSum},
      {"priv_escapes", &CoreStats::priv_escapes, Merge::kSum},
  };
  return kCounters;
}

const std::vector<HistDef>& hist_registry() {
  static const std::vector<HistDef> kHists = {
      {"tx_cycles", &CoreStats::h_tx_cycles},
      {"tx_retries", &CoreStats::h_tx_retries},
      {"lock_hold", &CoreStats::h_lock_hold},
      {"spec_footprint", &CoreStats::h_spec_footprint},
      {"tx_backoff", &CoreStats::h_tx_backoff},
  };
  return kHists;
}

void merge_core_stats(CoreStats& into, const CoreStats& c) {
  for (const CounterDef& d : counter_registry()) {
    switch (d.merge) {
      case Merge::kSum: into.*d.member += c.*d.member; break;
      case Merge::kMax:
        into.*d.member = std::max(into.*d.member, c.*d.member);
        break;
    }
  }
  for (const HistDef& d : hist_registry()) (into.*d.member).merge(c.*d.member);
}

void write_core_stats_json(std::FILE* f, const CoreStats& cs) {
  bool first = true;
  for (const CounterDef& d : counter_registry()) {
    std::fprintf(f, "%s\"%s\": %" PRIu64, first ? "" : ", ", d.name,
                 cs.*d.member);
    first = false;
  }
  std::fprintf(f, ", \"hists\": {");
  first = true;
  for (const HistDef& d : hist_registry()) {
    std::fprintf(f, "%s\"%s\": ", first ? "" : ", ", d.name);
    first = false;
    write_hist_json(f, cs.*d.member);
  }
  std::fprintf(f, "}");
}

void write_privacy_json(std::FILE* f, const sim::PrivacyStats& priv) {
  std::fprintf(f,
               "{\"escaped_lines\": %" PRIu64 ", \"publish_checks\": %" PRIu64
               ", \"arena_escapes\": [",
               priv.escaped_lines, priv.publish_checks);
  for (std::size_t a = 0; a < priv.arena_escapes.size(); ++a)
    std::fprintf(f, "%s%" PRIu64, a == 0 ? "" : ", ", priv.arena_escapes[a]);
  std::fprintf(f, "]}");
}

}  // namespace st::obs
