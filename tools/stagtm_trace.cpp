// stagtm-trace: reads the observer's binary container (STAGTM_TRACE=<path>
// with a non-.json suffix, obs/export.hpp) without opening a UI.
//
//   stagtm-trace [summary] [--top N] FILE   what happened (the default):
//     * per-core record totals (commits, aborts, drops)
//     * abort heatmap: top conflicting lines x anchor PC tags, with the
//       allocation site each abort's blame record names
//     * per-advisory-lock hold/contention table
//     * locking-policy decision counts
//     * privacy report: lines that escaped their owner's private domain
//   stagtm-trace blame [--top N] [--window W] FILE   who is to blame:
//     * blame totals, abort causes, wasted cycles per execution tier
//     * hotspots: (allocation site x access PC) ranked by wasted cycles —
//       "code X touching data born at Y" is what advisory locks target
//     * conflict graph: top aggressor -> victim edges
//     * abort cascades: an aborted transaction retries and in turn aborts
//       someone else within W cycles (A kills B, B kills C, ...)
//     * lock effectiveness: per advisory lock, how many waits avoided a
//       conflict (footprints overlapped) vs were false (disjoint: pure cost)
//   stagtm-trace diff [--top N] A B   two runs side by side (e.g. advisory
//     locks off vs on): blame totals, per-lock counterfactual counts, and
//     the hotspot deltas that explain where the wasted cycles went
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/export.hpp"

namespace {

using st::obs::Blame;
using st::obs::ConflictGraph;
using st::obs::EventKind;
using st::obs::LockEffectiveness;
using st::obs::ProvSummary;
using st::obs::Record;
using st::obs::TraceData;

int usage() {
  std::fprintf(
      stderr,
      "usage: stagtm-trace [summary] [--top N] <file>\n"
      "       stagtm-trace blame [--top N] [--window W] <file>\n"
      "       stagtm-trace diff [--top N] <file-A> <file-B>\n"
      "  Reads binary observer files written by STAGTM_TRACE=<path>.\n"
      "  --top N     rows per table (default 10)\n"
      "  --window W  max cycles between cascade links (default 5000)\n");
  return 2;
}

bool load(const char* path, TraceData* out) {
  std::string err;
  if (st::obs::read_trace_file(path, out, &err)) return true;
  std::fprintf(stderr, "stagtm-trace: %s: %s\n", path, err.c_str());
  const std::string p = path;
  if (p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0)
    std::fprintf(stderr,
                 "(.json traces are for Perfetto/chrome://tracing; point "
                 "STAGTM_TRACE at a non-.json path for this tool)\n");
  return false;
}

const char* site_name(std::uint32_t site, char (&buf)[16]) {
  if (site == 0) return "(static)";
  std::snprintf(buf, sizeof buf, "0x%x", site);
  return buf;
}

/// The first `top` rows by descending rank(row); ties keep input order.
template <typename Row, typename Rank>
std::vector<Row> top_rows(std::vector<Row> rows, unsigned top, Rank rank) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& x, const Row& y) {
    return rank(x) > rank(y);
  });
  if (rows.size() > top) rows.resize(top);
  return rows;
}

/// " conflict:3 glock:1" over the nonzero counts ("" when all are zero).
std::string causes(const std::uint64_t (&by_cause)[8]) {
  std::string out;
  for (unsigned cz = 0; cz < 8; ++cz)
    if (by_cause[cz] != 0)
      out += std::string(" ") +
             st::obs::abort_cause_name(static_cast<std::uint8_t>(cz)) + ":" +
             std::to_string(by_cause[cz]);
  return out;
}

// ===========================================================================
// summary
// ===========================================================================

struct AbortCell {
  std::uint64_t count = 0;
  std::uint64_t by_cause[8] = {};
  std::uint32_t alloc_site = 0;  // from the first matching blame record
  bool site_known = false;
  std::uint64_t blamed = 0;      // aborts in this cell with a blame record
};

struct LockRow {
  std::uint64_t acquires = 0;
  std::uint64_t hold_total = 0;
  std::uint64_t hold_max = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t wait_total = 0;  // cycles spent in timed-out waits
};

struct Escape {
  std::uint64_t cycle = 0;
  std::uint64_t line = 0;
  std::uint32_t pc = 0;         // 0 = commit drain / host channel
  unsigned owner = 0;           // core whose arena lost the line
  unsigned publisher = 0;       // core whose publication leaked it
};

int summary(const char* path, unsigned top) {
  TraceData t;
  if (!load(path, &t)) return 1;

  // ---- per-core totals ----------------------------------------------------
  std::printf("trace: %s  (%u cores, ring cap %" PRIu64 "/core)\n", path,
              t.cores(), t.cap_per_core);
  std::printf("\nper-core records\n");
  std::printf("  %-4s %10s %10s %9s %9s %9s %9s\n", "core", "emitted",
              "dropped", "begins", "commits", "aborts", "locks");
  std::uint64_t all_emitted = 0, all_dropped = 0;
  // Cross-core aggregations filled in the same pass.
  std::map<std::pair<std::uint64_t, std::uint16_t>, AbortCell> heat;
  std::map<std::uint32_t, LockRow> locks;
  std::uint64_t decisions[8] = {};
  std::uint64_t total_commits = 0, total_aborts = 0, irrevocable = 0;
  std::uint64_t stm_commits = 0, blamed = 0;
  std::uint64_t train_htm = 0, train_stm = 0;
  std::uint64_t alp_fired = 0, backoffs = 0;
  std::map<unsigned, std::uint64_t> arena_escapes;  // owner core -> lines
  std::vector<Escape> escapes;
  for (unsigned c = 0; c < t.cores(); ++c) {
    std::uint64_t begins = 0, commits = 0, aborts = 0, lockev = 0;
    // A blame record follows its kTxAbort on the same ring, stamped with
    // the same abort-finalization cycle.
    AbortCell* pending = nullptr;
    std::uint64_t pending_at = 0;
    for (const Record& r : t.per_core[c].records) {
      const st::obs::Event& e = r.event;
      switch (r.kind()) {
        case EventKind::kTxBegin: ++begins; break;
        case EventKind::kTxCommit:
          // arg8 = execution tier: 0 HTM, 1 irrevocable (glock), 2 STM.
          ++commits;
          if (e.arg8 == 1) ++irrevocable;
          if (e.arg8 == 2) ++stm_commits;
          break;
        case EventKind::kTxAbort: {
          ++aborts;
          // Policy-training tier split: the locking policy trains on HTM
          // conflict aborts (cause 1) and STM orec conflicts (causes 5-6).
          if ((e.arg8 & 7) == 1) ++train_htm;
          if ((e.arg8 & 7) == 5 || (e.arg8 & 7) == 6) ++train_stm;
          AbortCell& cell = heat[{e.a64, e.pc_tag}];
          ++cell.count;
          ++cell.by_cause[e.arg8 & 7];
          pending = &cell;
          pending_at = e.at;
          break;
        }
        case EventKind::kBlame:
          if (pending != nullptr && r.blame.at == pending_at) {
            ++pending->blamed;
            ++blamed;
            if (!pending->site_known) {
              pending->alloc_site = r.blame.alloc_site;
              pending->site_known = true;
            }
          }
          pending = nullptr;
          break;
        case EventKind::kAlpFired: ++alp_fired; break;
        case EventKind::kLockAcquire:
          ++lockev;
          ++locks[e.a32].acquires;
          break;
        case EventKind::kLockRelease: {
          ++lockev;
          LockRow& row = locks[e.a32];
          row.hold_total += e.a64;
          row.hold_max = std::max(row.hold_max, e.a64);
          break;
        }
        case EventKind::kLockTimeout: {
          ++lockev;
          LockRow& row = locks[e.a32];
          ++row.timeouts;
          row.wait_total += e.a64;
          break;
        }
        case EventKind::kPolicyDecision: ++decisions[e.arg8 & 7]; break;
        case EventKind::kBackoff: ++backoffs; break;
        case EventKind::kLineEscape:
          ++arena_escapes[e.arg8];
          escapes.push_back({e.at, e.a64, e.a32, e.arg8, c});
          break;
        default: break;  // irrevocable pairs with kTxCommit(arg8=1)
      }
    }
    total_commits += commits;
    total_aborts += aborts;
    const std::uint64_t emitted = t.per_core[c].total_emitted();
    all_emitted += emitted;
    all_dropped += t.per_core[c].dropped();
    std::printf("  %-4u %10" PRIu64 " %10" PRIu64 " %9" PRIu64 " %9" PRIu64
                " %9" PRIu64 " %9" PRIu64 "\n",
                c, emitted, t.per_core[c].dropped(), begins, commits, aborts,
                lockev);
  }
  std::printf("  total emitted %" PRIu64 ", dropped %" PRIu64
              " | commits %" PRIu64 " (htm %" PRIu64 ", stm %" PRIu64
              ", glock %" PRIu64 "), aborts %" PRIu64 ", ALPs %" PRIu64
              ", backoffs %" PRIu64 "\n",
              all_emitted, all_dropped, total_commits,
              total_commits - irrevocable - stm_commits, stm_commits,
              irrevocable, total_aborts, alp_fired, backoffs);
  if (all_dropped != 0)
    std::printf("  note: rings wrapped; counts below cover surviving (newest)"
                " records only — raise STAGTM_TRACE_CAP for full coverage\n");

  // ---- abort heatmap ------------------------------------------------------
  std::printf("\nabort heatmap (top %u conflicting line x PC-tag pairs)\n",
              top);
  if (heat.empty()) {
    std::printf("  (no aborts in trace)\n");
  } else {
    using Row = std::pair<std::pair<std::uint64_t, std::uint16_t>, AbortCell>;
    std::printf("  %-18s %-7s %8s %-5s %-12s %s\n", "line", "pc_tag",
                "aborts", "tier", "alloc_site", "causes");
    for (const auto& [key, cell] :
         top_rows(std::vector<Row>(heat.begin(), heat.end()), top,
                  [](const Row& r) { return r.second.count; })) {
      // Execution tier, recovered exactly from the cause namespace: causes
      // 5..7 are raised only by the STM tier, 1..4 only by hardware
      // transactions (glock-serialized executions never abort).
      std::uint64_t stm_ab = 0;
      for (unsigned cz = 5; cz < 8; ++cz) stm_ab += cell.by_cause[cz];
      const char* tier = stm_ab == 0 ? "htm"
                         : stm_ab == cell.count ? "stm"
                                                : "both";
      char site[16];
      std::printf("  0x%-16" PRIx64 " 0x%-5x %8" PRIu64 " %-5s %-12s %s\n",
                  key.first, key.second, cell.count, tier,
                  cell.site_known ? site_name(cell.alloc_site, site) : "?",
                  causes(cell.by_cause).c_str() + 1);
    }
    std::printf("  blame join: %" PRIu64 "/%" PRIu64
                " aborts matched a blame record\n",
                blamed, total_aborts);
  }

  // ---- per-lock table -----------------------------------------------------
  std::printf("\nadvisory locks (%zu seen)\n", locks.size());
  if (locks.empty()) {
    std::printf("  (no lock events in trace)\n");
  } else {
    std::printf("  %-5s %9s %12s %10s %10s %9s %12s\n", "lock", "acquires",
                "hold_total", "hold_avg", "hold_max", "timeouts",
                "wait_cycles");
    for (const auto& [idx, r] : locks) {
      const double avg =
          r.acquires == 0 ? 0.0
                          : static_cast<double>(r.hold_total) /
                                static_cast<double>(r.acquires);
      std::printf("  %-5u %9" PRIu64 " %12" PRIu64 " %10.1f %10" PRIu64
                  " %9" PRIu64 " %12" PRIu64 "\n",
                  idx, r.acquires, r.hold_total, avg, r.hold_max, r.timeouts,
                  r.wait_total);
    }
  }

  // ---- policy decisions ---------------------------------------------------
  std::printf("\nlocking-policy decisions\n");
  bool any = false;
  for (unsigned d = 0; d < 8; ++d) {
    if (decisions[d] == 0) continue;
    std::printf("  %-10s %9" PRIu64 "\n",
                st::obs::policy_decision_name(static_cast<std::uint8_t>(d)),
                decisions[d]);
    any = true;
  }
  if (!any) std::printf("  (none — run a Staggered/AddrOnly scheme)\n");
  if (any)
    std::printf("  training aborts by tier: htm %" PRIu64 " (conflict), stm %"
                PRIu64 " (stm_validation + stm_lock)\n",
                train_htm, train_stm);

  // ---- privacy report -----------------------------------------------------
  // Each line escapes at most once (privacy is irrevocable), so the event
  // count IS the escaped-line count and "first escape" is "the escape".
  std::printf("\nprivate-line escapes (%zu lines left their arena)\n",
              escapes.size());
  if (escapes.empty()) {
    std::printf("  (none — all worker-arena lines stayed private)\n");
  } else {
    std::printf("  per-arena: ");
    bool firsta = true;
    for (const auto& [owner, n] : arena_escapes) {
      std::printf("%score%u:%" PRIu64, firsta ? "" : " ", owner, n);
      firsta = false;
    }
    std::printf("\n");
    std::sort(escapes.begin(), escapes.end(),
              [](const Escape& a, const Escape& b) {
                if (a.cycle != b.cycle) return a.cycle < b.cycle;
                return a.line < b.line;  // deterministic tie-break
              });
    std::printf("  %-18s %12s %-10s %-6s %s\n", "line", "cycle", "pc",
                "owner", "published by");
    const std::size_t n = std::min<std::size_t>(escapes.size(), top);
    for (std::size_t i = 0; i < n; ++i) {
      const Escape& e = escapes[i];
      char pcbuf[16];
      if (e.pc == 0)
        std::snprintf(pcbuf, sizeof pcbuf, "%s", "commit");
      else
        std::snprintf(pcbuf, sizeof pcbuf, "0x%x", e.pc);
      std::printf("  0x%-16" PRIx64 " %12" PRIu64 " %-10s %-6u core%u\n",
                  e.line, e.cycle, pcbuf, e.owner, e.publisher);
    }
    if (escapes.size() > n)
      std::printf("  ... %zu more (raise --top to see them)\n",
                  escapes.size() - n);
  }
  return 0;
}

// ===========================================================================
// blame
// ===========================================================================

/// All surviving blame records, each with its victim core, merged across
/// cores in time order (ties broken by victim core).
struct CoreBlame {
  unsigned victim = 0;
  Blame blame;
};

std::vector<CoreBlame> merged_blames(const TraceData& t) {
  std::vector<CoreBlame> all;
  for (unsigned c = 0; c < t.cores(); ++c)
    for (const Record& r : t.per_core[c].records)
      if (r.kind() == EventKind::kBlame) all.push_back({c, r.blame});
  std::stable_sort(all.begin(), all.end(),
                   [](const CoreBlame& a, const CoreBlame& b) {
                     if (a.blame.at != b.blame.at)
                       return a.blame.at < b.blame.at;
                     return a.victim < b.victim;
                   });
  return all;
}

void print_blame_summary(const TraceData& t) {
  const ProvSummary s = st::obs::summarize_prov(t);
  std::printf("summary\n");
  std::printf("  blame records   %10" PRIu64 "  (dropped %" PRIu64 ")\n",
              s.blame_records, s.blame_dropped);
  std::printf("  lock episodes   %10" PRIu64 "  (dropped %" PRIu64 ")\n",
              s.lock_episodes, s.episodes_dropped);
  std::printf("  wasted cycles   %10" PRIu64 "\n", s.wasted_cycles);
  std::uint64_t by_cause[8] = {};
  std::uint64_t self = 0, glock = 0, stm_wasted = 0;
  for (const CoreBlame& cb : merged_blames(t)) {
    const Blame& r = cb.blame;
    ++by_cause[r.cause & 7];
    if ((r.flags & st::obs::kBlameHasAggressor) != 0 &&
        r.aggressor_core == cb.victim)
      ++self;  // capacity overflow: the victim is its own aggressor
    if (r.flags & st::obs::kBlameWillGlock) ++glock;
    if (r.flags & st::obs::kBlameTierStm) stm_wasted += r.wasted_cycles;
  }
  const std::string cs = causes(by_cause);
  std::printf("  causes         %s\n", cs.empty() ? " (none)" : cs.c_str());
  std::printf("  self-inflicted  %10" PRIu64
              "   retry-budget-exhausted %" PRIu64 "\n",
              self, glock);
  std::printf("  by tier: htm %" PRIu64 " (wasted %" PRIu64 "), stm %" PRIu64
              " (wasted %" PRIu64 ")\n",
              s.blame_records - s.stm_blames, s.wasted_cycles - stm_wasted,
              s.stm_blames, stm_wasted);
  std::printf("  serializations: conflict-avoided %" PRIu64
              ", false %" PRIu64 ", indeterminate %" PRIu64 "\n",
              s.conflict_avoided, s.false_serialization, s.indeterminate);
}

void print_hotspots(const ConflictGraph& g, unsigned top) {
  std::printf("\nhotspots (allocation site x victim PC, by wasted cycles)\n");
  if (g.nodes.empty()) {
    std::printf("  (no aborts recorded)\n");
    return;
  }
  using Node = ConflictGraph::Node;
  std::vector<Node> nodes = g.nodes;
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    return std::pair(a.alloc_site, a.pc) < std::pair(b.alloc_site, b.pc);
  });
  std::printf("  %-12s %-10s %10s %10s %14s\n", "alloc_site", "pc",
              "victim", "aggressor", "wasted_cycles");
  for (const Node& n :
       top_rows(nodes, top, [](const Node& n) { return n.wasted_cycles; })) {
    char site[16];
    std::printf("  %-12s 0x%-8x %10" PRIu64 " %10" PRIu64 " %14" PRIu64 "\n",
                site_name(n.alloc_site, site), n.pc, n.aborts_as_victim,
                n.aborts_as_aggressor, n.wasted_cycles);
  }
}

void print_edges(const ConflictGraph& g, unsigned top) {
  std::printf("\nconflict graph (top aggressor -> victim edges)\n");
  if (g.edges.empty()) {
    std::printf("  (no attributed conflicts)\n");
    return;
  }
  const std::size_t n = std::min<std::size_t>(g.edges.size(), top);
  std::printf("  %-26s %-26s %8s %14s\n", "aggressor (site,pc)",
              "victim (site,pc)", "aborts", "wasted_cycles");
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = g.edges[i];
    const auto& s = g.nodes[e.src];
    const auto& d = g.nodes[e.dst];
    char sb[32], db[32];
    std::snprintf(sb, sizeof sb, "(0x%x,0x%x)", s.alloc_site, s.pc);
    std::snprintf(db, sizeof db, "(0x%x,0x%x)", d.alloc_site, d.pc);
    std::printf("  %-26s %-26s %8" PRIu64 " %14" PRIu64 "\n", sb, db,
                e.aborts, e.wasted_cycles);
  }
  if (g.edges.size() > n)
    std::printf("  ... %zu more edges\n", g.edges.size() - n);
}

/// Cascade chains: record B continues record A when A's victim — forced to
/// retry — shows up as B's aggressor within `window` cycles. A long chain
/// is contention begetting contention: the signal that a single advisory
/// lock placed at the chain's root line would have quenched the whole run.
void print_cascades(const TraceData& t, unsigned top, std::uint64_t window) {
  const std::vector<CoreBlame> all = merged_blames(t);
  std::printf("\nabort cascades (retry chains within %" PRIu64 " cycles)\n",
              window);
  if (all.empty()) {
    std::printf("  (no aborts recorded)\n");
    return;
  }
  // last_victim[c] = index of the newest record in which core c was the
  // victim; records are scanned in time order so a lookup sees only the
  // past. parent[] links each record to the abort that provoked it.
  std::vector<std::ptrdiff_t> last_victim(256, -1);
  std::vector<std::ptrdiff_t> parent(all.size(), -1);
  std::vector<std::uint32_t> depth(all.size(), 1);
  std::vector<std::uint64_t> chain_wasted(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Blame& r = all[i].blame;
    chain_wasted[i] = r.wasted_cycles;
    if ((r.flags & st::obs::kBlameHasAggressor) &&
        r.aggressor_core != all[i].victim) {  // self-aborts never cascade
      const std::ptrdiff_t p = last_victim[r.aggressor_core];
      if (p >= 0 && all[p].blame.at <= r.at &&
          r.at - all[p].blame.at <= window) {
        parent[i] = p;
        depth[i] = depth[p] + 1;
        chain_wasted[i] += chain_wasted[p];
      }
    }
    last_victim[all[i].victim] = static_cast<std::ptrdiff_t>(i);
  }
  // Chain tips = records nobody continued; rank by chain depth then cost.
  std::vector<bool> continued(all.size(), false);
  for (std::size_t i = 0; i < all.size(); ++i)
    if (parent[i] >= 0) continued[static_cast<std::size_t>(parent[i])] = true;
  std::vector<std::size_t> tips;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (!continued[i] && depth[i] >= 2) tips.push_back(i);
  if (tips.empty()) {
    std::printf("  (no cascades: every abort's aggressor committed)\n");
    return;
  }
  std::sort(tips.begin(), tips.end(), [&](std::size_t a, std::size_t b) {
    if (depth[a] != depth[b]) return depth[a] > depth[b];
    if (chain_wasted[a] != chain_wasted[b])
      return chain_wasted[a] > chain_wasted[b];
    return all[a].blame.at < all[b].blame.at;
  });
  const std::size_t n = std::min<std::size_t>(tips.size(), top);
  std::printf("  %zu chains (depth >= 2); deepest %u\n", tips.size(),
              depth[tips[0]]);
  for (std::size_t k = 0; k < n; ++k) {
    std::printf("  chain %zu: depth %u, wasted %" PRIu64 " cycles\n", k + 1,
                depth[tips[k]], chain_wasted[tips[k]]);
    // Walk tip -> root, then print root-first.
    std::vector<std::size_t> hops;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(tips[k]); i >= 0;
         i = parent[static_cast<std::size_t>(i)])
      hops.push_back(static_cast<std::size_t>(i));
    std::reverse(hops.begin(), hops.end());
    for (std::size_t h : hops) {
      const Blame& r = all[h].blame;
      std::printf("    @%-10" PRIu64 " core%u killed core%u  line 0x%" PRIx64
                  "  pc 0x%x  site 0x%x  (%s, retry %u)\n",
                  r.at, r.aggressor_core, all[h].victim, r.line, r.victim_pc,
                  r.alloc_site, st::obs::abort_cause_name(r.cause), r.retry);
    }
  }
  if (tips.size() > n)
    std::printf("  ... %zu more chains (raise --top)\n", tips.size() - n);
}

void print_locks(const TraceData& t, unsigned top) {
  const std::vector<LockEffectiveness> rows = st::obs::lock_effectiveness(t);
  std::printf("\nadvisory-lock effectiveness (counterfactual)\n");
  if (rows.empty()) {
    std::printf("  (no lock episodes — run a Staggered/AddrOnly scheme)\n");
    return;
  }
  const std::vector<LockEffectiveness> ranked = top_rows(
      rows, top, [](const LockEffectiveness& r) { return r.episodes; });
  std::printf("  %-5s %9s %9s %9s %7s %13s %13s %8s\n", "lock", "episodes",
              "avoided", "false", "indet", "avoided_wait", "false_wait",
              "useful%");
  for (const auto& r : ranked) {
    const std::uint64_t classified = r.conflict_avoided + r.false_serialization;
    const double useful =
        classified == 0 ? 0.0
                        : 100.0 * static_cast<double>(r.conflict_avoided) /
                              static_cast<double>(classified);
    std::printf("  %-5u %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %7" PRIu64
                " %13" PRIu64 " %13" PRIu64 " %7.1f%%\n",
                r.lock_idx, r.episodes, r.conflict_avoided,
                r.false_serialization, r.indeterminate, r.avoided_wait_cycles,
                r.false_wait_cycles, useful);
  }
  if (rows.size() > ranked.size())
    std::printf("  ... %zu more locks (raise --top)\n",
                rows.size() - ranked.size());
}

int blame(const char* path, unsigned top, std::uint64_t window) {
  TraceData t;
  if (!load(path, &t)) return 1;
  std::printf("blame: %s  (%u cores, ring cap %" PRIu64 "/core)\n", path,
              t.cores(), t.cap_per_core);
  const std::uint64_t bd = t.dropped(EventKind::kBlame);
  const std::uint64_t ed = t.dropped(EventKind::kEpisode);
  if (bd != 0 || ed != 0)
    std::printf("note: rings wrapped (%" PRIu64 " blames, %" PRIu64
                " episodes dropped); tables cover surviving (newest) records"
                " — raise STAGTM_TRACE_CAP for full coverage\n",
                bd, ed);
  print_blame_summary(t);
  const ConflictGraph g = st::obs::build_conflict_graph(t);
  print_hotspots(g, top);
  print_edges(g, top);
  print_cascades(t, top, window);
  print_locks(t, top);
  return 0;
}

// ===========================================================================
// diff
// ===========================================================================

void diff_line(const char* label, std::uint64_t a, std::uint64_t b) {
  const std::int64_t delta =
      static_cast<std::int64_t>(b) - static_cast<std::int64_t>(a);
  std::printf("  %-24s %12" PRIu64 " %12" PRIu64 " %+12" PRId64 "\n", label,
              a, b, delta);
}

int diff(const char* pa, const char* pb, unsigned top) {
  TraceData a, b;
  if (!load(pa, &a) || !load(pb, &b)) return 1;
  std::printf("diff: A = %s\n      B = %s\n", pa, pb);
  const ProvSummary sa = st::obs::summarize_prov(a);
  const ProvSummary sb = st::obs::summarize_prov(b);
  std::printf("\n  %-24s %12s %12s %12s\n", "", "A", "B", "B-A");
  diff_line("aborts (blamed)", sa.blame_records, sb.blame_records);
  diff_line("wasted cycles", sa.wasted_cycles, sb.wasted_cycles);
  diff_line("lock episodes", sa.lock_episodes, sb.lock_episodes);
  diff_line("conflict avoided", sa.conflict_avoided, sb.conflict_avoided);
  diff_line("false serialization", sa.false_serialization,
            sb.false_serialization);
  diff_line("indeterminate", sa.indeterminate, sb.indeterminate);

  // Per-lock counterfactual table, union of both runs' locks. A run with
  // advisory locks off contributes zeros — the table then reads as "what
  // the locks bought (avoided) and charged (false) when turned on".
  using LockPair = std::pair<LockEffectiveness, LockEffectiveness>;
  std::map<std::uint32_t, LockPair> by_lock;
  for (const LockEffectiveness& r : st::obs::lock_effectiveness(a))
    by_lock[r.lock_idx].first = r;
  for (const LockEffectiveness& r : st::obs::lock_effectiveness(b))
    by_lock[r.lock_idx].second = r;
  std::printf("\nper-lock counterfactual (A | B)\n");
  if (by_lock.empty()) {
    std::printf("  (no lock episodes in either run)\n");
  } else {
    std::printf("  %-5s | %9s %9s %9s | %9s %9s %9s\n", "lock", "avoided",
                "false", "indet", "avoided", "false", "indet");
    using Row = std::pair<std::uint32_t, LockPair>;
    for (const auto& [idx, pr] :
         top_rows(std::vector<Row>(by_lock.begin(), by_lock.end()), top,
                  [](const Row& r) {
                    return r.second.first.episodes + r.second.second.episodes;
                  }))
      std::printf("  %-5u | %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                  " | %9" PRIu64 " %9" PRIu64 " %9" PRIu64 "\n",
                  idx, pr.first.conflict_avoided, pr.first.false_serialization,
                  pr.first.indeterminate, pr.second.conflict_avoided,
                  pr.second.false_serialization, pr.second.indeterminate);
  }

  // Hotspot delta: which (site, pc) nodes gained/lost wasted cycles.
  struct Cell {
    std::uint64_t aborts_a = 0, wasted_a = 0;
    std::uint64_t aborts_b = 0, wasted_b = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Cell> cells;
  for (const ConflictGraph::Node& n : st::obs::build_conflict_graph(a).nodes) {
    Cell& c = cells[{n.alloc_site, n.pc}];
    c.aborts_a = n.aborts_as_victim;
    c.wasted_a = n.wasted_cycles;
  }
  for (const ConflictGraph::Node& n : st::obs::build_conflict_graph(b).nodes) {
    Cell& c = cells[{n.alloc_site, n.pc}];
    c.aborts_b = n.aborts_as_victim;
    c.wasted_b = n.wasted_cycles;
  }
  std::printf("\nhotspot deltas (by |wasted B - wasted A|)\n");
  if (cells.empty()) {
    std::printf("  (no aborts in either run)\n");
    return 0;
  }
  using Row = std::pair<std::pair<std::uint32_t, std::uint32_t>, Cell>;
  std::printf("  %-12s %-10s %9s %9s %13s %13s\n", "alloc_site", "pc",
              "aborts A", "aborts B", "wasted A", "wasted B");
  for (const auto& [key, c] :
       top_rows(std::vector<Row>(cells.begin(), cells.end()), top,
                [](const Row& r) {
                  const Cell& c = r.second;
                  return c.wasted_b > c.wasted_a ? c.wasted_b - c.wasted_a
                                                 : c.wasted_a - c.wasted_b;
                })) {
    char site[16];
    std::printf("  %-12s 0x%-8x %9" PRIu64 " %9" PRIu64 " %13" PRIu64
                " %13" PRIu64 "\n",
                site_name(key.first, site), key.second, c.aborts_a,
                c.aborts_b, c.wasted_a, c.wasted_b);
  }
  return 0;
}

bool parse_u64(const char* s, std::uint64_t lo, std::uint64_t hi,
               std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int i = 1;
  std::string cmd = "summary";
  if (i < argc && (std::strcmp(argv[i], "summary") == 0 ||
                   std::strcmp(argv[i], "blame") == 0 ||
                   std::strcmp(argv[i], "diff") == 0))
    cmd = argv[i++];
  std::uint64_t top = 10, window = 5000;
  std::vector<const char*> paths;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], 1, 10000, &top)) return usage();
    } else if (cmd == "blame" && std::strcmp(argv[i], "--window") == 0 &&
               i + 1 < argc) {
      if (!parse_u64(argv[++i], 1, ~std::uint64_t{0}, &window))
        return usage();
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      paths.push_back(argv[i]);
    }
  }
  const unsigned n = static_cast<unsigned>(top);
  if (cmd == "diff")
    return paths.size() == 2 ? diff(paths[0], paths[1], n) : usage();
  if (paths.size() != 1) return usage();
  return cmd == "blame" ? blame(paths[0], n, window) : summary(paths[0], n);
}
