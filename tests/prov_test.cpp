// Conflict provenance inside the observer (obs/observer.hpp): blame-ring
// semantics, counterfactual lock classification, allocation-site tracking,
// the binary container, the conflict-graph builder, and — the load-bearing
// invariants — the observer never changing a simulated result, and its file
// never changing with step fusion.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "htm/htm.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/heap.hpp"
#include "test_util.hpp"
#include "workloads/harness.hpp"
#include "workloads/runner.hpp"

namespace st::obs {
namespace {

using testutil::slurp;
using testutil::tmp_path;

std::vector<Blame> blames(const Observer& o, sim::CoreId c) {
  std::vector<Blame> out;
  for (const Record& r : o.chronological(c))
    if (r.kind() == EventKind::kBlame) out.push_back(r.blame);
  return out;
}

std::vector<Episode> episodes(const Observer& o, sim::CoreId c) {
  std::vector<Episode> out;
  for (const Record& r : o.chronological(c))
    if (r.kind() == EventKind::kEpisode) out.push_back(r.episode);
  return out;
}

AbortReport report(std::uint8_t cause, sim::Addr line,
                   std::uint32_t first_pc) {
  AbortReport a;
  a.cause = cause;
  a.line = line;
  a.first_pc = first_pc;
  return a;
}

/// `n` consecutive lines from `base`: more than kFootprintLines truncates.
std::vector<sim::Addr> lines_from(sim::Addr base, std::size_t n) {
  std::vector<sim::Addr> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(base + 64 * i);
  return v;
}

// -------------------------------------------------------- blame rings ----

/// Core 1 (block 7) and core 0 (block 3) both in their first attempt.
Observer two_attempts() {
  Observer s(2, 64);
  s.tx_begin(1, 0, 0, 7, 1);
  s.tx_begin(0, 0, 0, 3, 1);
  return s;
}

/// Drives one full conflict-abort on core `victim`, blamed on `aggressor`.
void run_conflict_abort(Observer& s, sim::CoreId victim, sim::CoreId aggressor,
                        sim::Addr line, std::uint32_t agg_pc,
                        sim::Cycle at = 100) {
  s.conflict_stamp(victim, aggressor, agg_pc);
  AbortReport a = report(/*cause=*/1, line, 0x10);
  a.pc_tag_valid = true;
  a.pc_tag = 0xBEE;
  a.aborter = static_cast<int>(aggressor);
  s.tx_abort(victim, at, a, {line});
  s.attempt_abort(victim, at, /*attempts=*/1, /*wasted=*/50, false);
}

TEST(ObserverRing, BlameWrapKeepsNewestAndCountsDrops) {
  // Each iteration records tx_begin, tx_abort and blame: a 12-record ring
  // keeps the newest four iterations.
  Observer s(2, /*cap=*/12);
  s.tx_begin(1, 0, 0, 7, 1);
  for (unsigned i = 0; i < 11; ++i) {
    s.tx_begin(0, 90 + i, 0, 3, 1);
    run_conflict_abort(s, 0, 1, 0x1000 + 64u * i, 0x42, 100 + i);
  }
  EXPECT_EQ(s.emitted(0, EventKind::kBlame), 11u);
  EXPECT_EQ(snapshot(s).dropped(EventKind::kBlame), 7u);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 4u);  // newest four survive, oldest first
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(b[i].at, 107u + i);
    EXPECT_EQ(b[i].line, 0x1000u + 64u * (7 + i));
  }
  EXPECT_EQ(s.emitted(1, EventKind::kBlame), 0u);  // the aggressor never aborted
}

TEST(ObserverBlame, ConflictAbortFullyAttributed) {
  Observer s(2, 64);
  s.tx_begin(1, 0, 0, /*ab=*/7, 1);   // aggressor context
  s.tx_begin(0, 0, 0, /*ab=*/3, 2);   // victim, second attempt
  s.conflict_stamp(0, 1, 0x42);
  AbortReport a = report(/*cause=*/1, 0x2000, 0x10);
  a.pc_tag_valid = true;
  a.pc_tag = 0xABC;
  a.aborter = 1;
  a.alloc_site = 0x777;
  a.priv_owner = 2;
  s.tx_abort(0, 200, a, {0x2000, 0x2040});
  s.attempt_abort(0, 200, /*attempts=*/2, /*wasted=*/150, false);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 1u);
  const Blame& r = b[0];
  EXPECT_EQ(r.at, 200u);
  EXPECT_EQ(r.line, 0x2000u);
  EXPECT_EQ(r.wasted_cycles, 150u);
  EXPECT_EQ(r.victim_pc, 0x10u);
  EXPECT_EQ(r.aggressor_pc, 0x42u);
  EXPECT_EQ(r.alloc_site, 0x777u);
  EXPECT_EQ(r.victim_ab, 3u);
  EXPECT_EQ(r.aggressor_ab, 7u);
  EXPECT_EQ(r.pc_tag, 0xABCu);
  EXPECT_EQ(r.cause, 1u);
  EXPECT_EQ(r.aggressor_core, 1u);
  EXPECT_EQ(r.retry, 2u);
  EXPECT_EQ(r.priv_owner, 2u);
  EXPECT_TRUE(r.flags & kBlamePcTagValid);
  EXPECT_TRUE(r.flags & kBlameHasAggressor);
  EXPECT_TRUE(r.flags & kBlameLinePrivate);
  EXPECT_FALSE(r.flags & kBlameWillGlock);
  EXPECT_FALSE(r.flags & kBlameAggressorIrrev);
  // The abort event precedes its blame record on the victim's ring.
  const auto recs = s.chronological(0);
  ASSERT_GE(recs.size(), 3u);
  EXPECT_EQ(recs[recs.size() - 2].kind(), EventKind::kTxAbort);
  EXPECT_EQ(recs[recs.size() - 2].event.a32, 2u);  // aborter core 1, + 1
  EXPECT_EQ(recs.back().kind(), EventKind::kBlame);
}

TEST(ObserverBlame, AggressorContextSampledAtStampTime) {
  Observer s = two_attempts();
  s.conflict_stamp(0, 1, 0x42);
  // The aggressor commits and moves on to a different block before the
  // victim's abort finalizes; the blame must keep the stamp-time identity.
  s.tx_commit(1, 150, 0, 7, 1);
  s.tx_begin(1, 160, 0, 9, 1);
  s.tx_abort(0, 200, report(1, 0x2000, 0x10), {0x2000});
  s.attempt_abort(0, 200, 1, 80, false);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].aggressor_ab, 7u);  // not 9
}

TEST(ObserverBlame, CapacityAbortIsSelfConflict) {
  Observer s(1, 64);
  s.tx_begin(0, 0, 0, 5, 1);
  s.capacity_stamp(0, {0x3000, 0x3040});
  s.tx_abort(0, 300, report(/*cause=capacity*/ 2, 0x3000, 0x20), {});
  s.attempt_abort(0, 300, 1, 60, false);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].cause, 2u);
  EXPECT_EQ(b[0].aggressor_core, 0u);  // the victim itself
  EXPECT_EQ(b[0].aggressor_pc, 0u);
  EXPECT_EQ(b[0].aggressor_ab, 5u);
  EXPECT_TRUE(b[0].flags & kBlameHasAggressor);
}

TEST(ObserverBlame, CapacityStampOverridesEarlierConflictStamp) {
  Observer s = two_attempts();
  s.conflict_stamp(0, 1, 0x42);
  s.capacity_stamp(0, {0x3000});  // the overflow is what the attempt dies of
  s.tx_abort(0, 300, report(2, 0x3000, 0x20), {});
  s.attempt_abort(0, 300, 1, 60, false);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].aggressor_core, 0u);
  EXPECT_EQ(b[0].aggressor_pc, 0u);
}

TEST(ObserverBlame, IrrevocableAggressorFlagged) {
  Observer s(2, 64);
  s.irrevocable(1, 0, 7, 10);
  s.tx_begin(0, 0, 0, 3, 1);
  s.conflict_stamp(0, 1, 0x42);
  s.tx_abort(0, 200, report(1, 0x2000, 0x10), {0x2000});
  s.attempt_abort(0, 200, 10, 80, /*will_glock=*/true);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(b[0].flags & kBlameAggressorIrrev);
  EXPECT_TRUE(b[0].flags & kBlameWillGlock);
  EXPECT_EQ(b[0].retry, 10u);
}

TEST(ObserverBlame, CommitOrUnfinalizedAbortEmitsNothing) {
  Observer s(2, 64);
  s.tx_begin(0, 0, 0, 3, 1);
  s.conflict_stamp(0, 1, 0x42);
  s.capture_footprint(0, {0x2000});
  s.tx_commit(0, 100, 0, 3, 1);  // stamped but survived: no blame
  EXPECT_EQ(s.emitted(0, EventKind::kBlame), 0u);
  // An abort with no finalization (nothing reported by the HTM) emits
  // nothing either, and the stale stamp must have been cleared by the
  // commit.
  s.tx_begin(0, 120, 0, 3, 2);
  s.attempt_abort(0, 150, 2, 10, false);
  EXPECT_EQ(s.emitted(0, EventKind::kBlame), 0u);
}

TEST(ObserverBlame, FootprintKeepsFirstCaptureAndFlagsTruncation) {
  Observer s(1, 64);
  s.tx_begin(0, 0, 0, 1, 1);
  // One line over the cap: truncated. A later capture must not overwrite
  // the first, or the truncation flag would be lost.
  s.capture_footprint(0, lines_from(0x1000, kFootprintLines + 1));
  s.capture_footprint(0, {0x9000});
  s.tx_abort(0, 100, report(2, 0x1000, 0), {0x9000});
  s.attempt_abort(0, 100, 1, 10, false);
  // The next attempt starts fresh.
  s.tx_begin(0, 110, 0, 1, 2);
  s.tx_abort(0, 120, report(2, 0x1000, 0), {0x1000});
  s.attempt_abort(0, 120, 2, 10, false);
  const auto b = blames(s, 0);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_TRUE(b[0].flags & kBlameFpTruncated);
  EXPECT_FALSE(b[1].flags & kBlameFpTruncated);
}

// ------------------------------------------------- lock counterfactuals ----

TEST(ObserverEpisode, OverlapClassifiesConflictAvoided) {
  Observer s = two_attempts();  // holder core 1, waiter core 0
  s.lock_wait(0, 100, /*lock=*/5, /*line=*/0x2040, /*holder=*/1);
  s.lock_acquire(0, 160, 5, 0x2040);
  // Holder commits first, publishing its footprint to the open episode.
  s.capture_footprint(1, {0x2040, 0x9000});
  s.tx_commit(1, 170, 0, 7, 1);
  s.capture_footprint(0, {0x1000, 0x2040});
  s.tx_commit(0, 200, 0, 3, 1);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  const Episode& e = eps[0];
  EXPECT_EQ(e.lock_idx, 5u);
  EXPECT_EQ(e.data_line, 0x2040u);
  EXPECT_EQ(e.holder_core, 1u);
  EXPECT_EQ(e.waiter_ab, 3u);
  EXPECT_EQ(e.holder_ab, 7u);
  EXPECT_EQ(e.at, 100u);
  EXPECT_EQ(e.wait_cycles, 60u);  // closed by the acquire at 160
  EXPECT_EQ(e.outcome, static_cast<std::uint8_t>(LockOutcome::kAcquired));
  EXPECT_EQ(e.classification,
            static_cast<std::uint8_t>(LockClass::kConflictAvoided));
  EXPECT_EQ(e.overlap_lines, 1u);
  EXPECT_EQ(e.overlap_line, 0x2040u);
  EXPECT_TRUE(e.flags & kEpisodeHolderFpValid);
  EXPECT_FALSE(e.flags & kEpisodeFpTruncated);
  EXPECT_TRUE(episodes(s, 1).empty());  // on the waiter's ring only
}

TEST(ObserverEpisode, DisjointClassifiesFalseSerialization) {
  Observer s = two_attempts();
  s.lock_wait(0, 100, 5, 0x2040, 1);
  s.lock_timeout(0, 2100, 5, 2000);  // gave up, ran unprotected
  s.capture_footprint(1, {0x9000, 0x9040});
  s.tx_commit(1, 2200, 0, 7, 1);
  s.capture_footprint(0, {0x1000, 0x2040});
  s.tx_commit(0, 2300, 0, 3, 1);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].outcome, static_cast<std::uint8_t>(LockOutcome::kTimeout));
  EXPECT_EQ(eps[0].wait_cycles, 2000u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kFalseSerialization));
  EXPECT_EQ(eps[0].overlap_lines, 0u);
  EXPECT_EQ(eps[0].overlap_line, 0u);
}

TEST(ObserverEpisode, MissingHolderFootprintIsIndeterminate) {
  Observer s(2, 64);
  s.irrevocable(1, 0, 7, 1);  // irrevocable holders have no speculative lines
  s.tx_begin(0, 0, 0, 3, 1);
  s.lock_wait(0, 100, 5, 0x2040, 1);
  s.lock_acquire(0, 150, 5, 0x2040);
  s.tx_commit(1, 160, 1, 7, 1);  // no footprint was ever captured
  s.capture_footprint(0, {0x2040});
  s.tx_commit(0, 200, 0, 3, 1);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
  EXPECT_TRUE(eps[0].flags & kEpisodeHolderIrrev);
  // Missing holder footprint, not a clipped one: the valid flag is off but
  // the truncation flag (which means "a footprint was clipped") stays clear.
  EXPECT_FALSE(eps[0].flags & kEpisodeHolderFpValid);
  EXPECT_FALSE(eps[0].flags & kEpisodeFpTruncated);
}

TEST(ObserverEpisode, TruncatedWaiterFootprintIsIndeterminate) {
  Observer s = two_attempts();
  s.lock_wait(0, 100, 5, 0x2040, 1);
  s.lock_acquire(0, 150, 5, 0x2040);
  s.capture_footprint(1, {0x2040});
  s.tx_commit(1, 160, 0, 7, 1);
  // Over the cap and clipped: the kept prefix misses the shared line.
  std::vector<sim::Addr> fp = lines_from(0x100000, kFootprintLines);
  fp.push_back(0x2040);
  s.capture_footprint(0, fp);
  s.tx_commit(0, 200, 0, 3, 1);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  // The clipped footprint could hide the overlapping line, so no "false
  // serialization" claim is safe.
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
  EXPECT_TRUE(eps[0].flags & kEpisodeFpTruncated);
}

TEST(ObserverEpisode, AbortDuringWaitRecordsOutcome) {
  Observer s = two_attempts();
  s.lock_wait(0, 100, 5, 0x2040, 1);
  s.lock_wait_aborted(0, 140);  // remote conflict killed the spinner
  s.capture_footprint(1, {0x2040});
  s.tx_commit(1, 150, 0, 7, 1);
  s.tx_abort(0, 160, report(1, 0x2040, 0x10), {0x2040});
  s.attempt_abort(0, 160, 1, 60, false);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].outcome,
            static_cast<std::uint8_t>(LockOutcome::kAbortedWaiting));
  EXPECT_EQ(eps[0].wait_cycles, 40u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kConflictAvoided));
  // The abort that ended the wait is also blamed, independently.
  EXPECT_EQ(s.emitted(0, EventKind::kBlame), 1u);
}

TEST(ObserverEpisode, HolderGenerationMismatchStaysIndeterminate) {
  Observer s = two_attempts();
  s.lock_wait(0, 100, 5, 0x2040, 1);  // samples holder generation G
  s.tx_commit(1, 120, 0, 7, 1);       // G ends without a footprint
  s.tx_begin(1, 130, 0, 7, 2);        // G+1 must not leak into the episode
  s.capture_footprint(1, {0x2040});
  s.tx_commit(1, 180, 0, 7, 2);
  s.lock_acquire(0, 190, 5, 0x2040);
  s.capture_footprint(0, {0x2040});
  s.tx_commit(0, 200, 0, 3, 1);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
  EXPECT_FALSE(eps[0].flags & kEpisodeHolderFpValid);
}

TEST(ObserverEpisode, UnknownHolderStaysIndeterminate) {
  Observer s(2, 64);
  s.tx_begin(0, 0, 0, 3, 1);
  s.lock_wait(0, 100, 5, 0x2040, /*holder=*/-1);
  s.lock_acquire(0, 150, 5, 0x2040);
  s.capture_footprint(0, {0x2040});
  s.tx_commit(0, 200, 0, 3, 1);
  const auto eps = episodes(s, 0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].holder_core, 0xFFu);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
}

// ---------------------------------------------------------- analysis ----

TraceData two_core_data() {
  TraceData d;
  d.cap_per_core = 16;
  d.per_core.resize(2);
  auto blame = [](std::uint32_t site, std::uint32_t vpc, std::uint32_t apc,
                  std::uint8_t acore, std::uint64_t wasted) {
    Blame r;
    r.alloc_site = site;
    r.victim_pc = vpc;
    r.aggressor_pc = apc;
    r.aggressor_core = acore;
    r.wasted_cycles = wasted;
    r.flags = kBlameHasAggressor;
    return Record(r);
  };
  d.per_core[0].records = {blame(0x100, 0x10, 0x20, 1, 50),
                           blame(0x100, 0x10, 0x20, 1, 70)};
  d.per_core[1].records = {blame(0x100, 0x20, 0x10, 0, 30)};
  // One self-stamped capacity abort: a node but no nonreflexive edge.
  Blame cap;
  cap.alloc_site = 0x200;
  cap.victim_pc = 0x30;
  cap.aggressor_core = 1;
  cap.wasted_cycles = 10;
  d.per_core[1].records.push_back(cap);  // no kBlameHasAggressor: no edge
  d.per_core[0].emitted[unsigned(EventKind::kBlame)] = 2;
  d.per_core[1].emitted[unsigned(EventKind::kBlame)] = 2;
  return d;
}

TEST(ProvGraph, AggregatesNodesAndSortsEdges) {
  const ConflictGraph g = build_conflict_graph(two_core_data());
  // Nodes: (0x100,0x10), (0x100,0x20), (0x200,0x30).
  ASSERT_EQ(g.nodes.size(), 3u);
  std::uint64_t victim_total = 0, wasted_total = 0;
  for (const auto& n : g.nodes) {
    victim_total += n.aborts_as_victim;
    wasted_total += n.wasted_cycles;
  }
  EXPECT_EQ(victim_total, 4u);
  EXPECT_EQ(wasted_total, 160u);
  // Edges: (0x20 -> 0x10) with 2 aborts/120 cycles, (0x10 -> 0x20) with
  // 1/30; sorted by wasted cycles descending.
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0].aborts, 2u);
  EXPECT_EQ(g.edges[0].wasted_cycles, 120u);
  EXPECT_EQ(g.edges[1].aborts, 1u);
  EXPECT_EQ(g.edges[1].wasted_cycles, 30u);
  EXPECT_EQ(g.nodes[g.edges[0].dst].pc, 0x10u);
  EXPECT_EQ(g.nodes[g.edges[0].src].pc, 0x20u);
}

TEST(ProvLocks, EffectivenessAggregatesPerLock) {
  TraceData d;
  d.cap_per_core = 16;
  d.per_core.resize(1);
  auto ep = [](std::uint32_t lock, LockClass cls, std::uint64_t wait) {
    Episode r;
    r.lock_idx = lock;
    r.classification = static_cast<std::uint8_t>(cls);
    r.wait_cycles = wait;
    return Record(r);
  };
  d.per_core[0].records = {ep(1, LockClass::kConflictAvoided, 100),
                           ep(1, LockClass::kFalseSerialization, 40),
                           ep(1, LockClass::kIndeterminate, 7),
                           ep(2, LockClass::kConflictAvoided, 60)};
  d.per_core[0].emitted[unsigned(EventKind::kEpisode)] = 4;
  const auto rows = lock_effectiveness(d);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].lock_idx, 1u);
  EXPECT_EQ(rows[0].episodes, 3u);
  EXPECT_EQ(rows[0].conflict_avoided, 1u);
  EXPECT_EQ(rows[0].false_serialization, 1u);
  EXPECT_EQ(rows[0].indeterminate, 1u);
  EXPECT_EQ(rows[0].avoided_wait_cycles, 100u);
  EXPECT_EQ(rows[0].false_wait_cycles, 40u);
  EXPECT_EQ(rows[1].lock_idx, 2u);
  EXPECT_EQ(rows[1].conflict_avoided, 1u);
  const ProvSummary s = summarize_prov(d);
  EXPECT_EQ(s.conflict_avoided, 2u);
  EXPECT_EQ(s.false_serialization, 1u);
  EXPECT_EQ(s.indeterminate, 1u);
  EXPECT_EQ(s.lock_episodes, 4u);
}

TEST(ProvBinary, RoundTripPreservesRecordsAndDropCounts) {
  Observer s(2, /*cap=*/6);  // two iterations of tx_begin, tx_abort, blame
  s.tx_begin(1, 0, 0, 7, 1);
  for (unsigned i = 0; i < 3; ++i) {  // 3 > 2: one blame dropped
    s.tx_begin(0, 90, 0, 3, 1);
    run_conflict_abort(s, 0, 1, 0x1000 + 64u * i, 0x42, 100 + i);
  }
  const std::string path = tmp_path("prov_roundtrip.trc");
  std::string err;
  ASSERT_TRUE(export_trace(snapshot(s), path, &err)) << err;
  TraceData d;
  ASSERT_TRUE(read_trace_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(d.cores(), 2u);
  EXPECT_EQ(d.cap_per_core, 6u);
  EXPECT_EQ(d.per_core[0].emitted[unsigned(EventKind::kBlame)], 3u);
  EXPECT_EQ(d.dropped(EventKind::kBlame), 1u);
  ASSERT_EQ(d.per_core[0].records.size(), 6u);
  ASSERT_EQ(d.per_core[0].records[2].kind(), EventKind::kBlame);
  EXPECT_EQ(d.per_core[0].records[2].blame.at, 101u);
  ASSERT_EQ(d.per_core[0].records[5].kind(), EventKind::kBlame);
  EXPECT_EQ(d.per_core[0].records[5].blame.line, 0x1000u + 128u);
}

TEST(ProvBinary, RejectsGarbage) {
  const std::string path = tmp_path("prov_garbage.trc");
  // Junk, and both retired formats (the old trace and the old prof file):
  // each is refused with a message naming what went wrong.
  const char* const files[][2] = {
      {"definitely not a trace file", "bad magic"},
      {"STGTRC01\x01\x00\x00\x00", "retired STGTRC01"},
      {"STGPRF01\x01\x00\x00\x00", "retired STGPRF01"},
  };
  for (const auto& [bytes, why] : files) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(bytes, f);
    std::fclose(f);
    TraceData d;
    std::string err;
    EXPECT_FALSE(read_trace_file(path, &d, &err));
    EXPECT_NE(err.find(why), std::string::npos) << err;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------- allocation sites ----

TEST(HeapSites, RecordsSitePerLineWhenEnabled) {
  sim::Heap h(2, 1 << 20);
  h.set_site_tracking(true);
  const sim::Addr a = h.alloc(0, 200, 8, /*site=*/0x1234);  // spans lines
  EXPECT_EQ(h.alloc_site_for(a), 0x1234u);
  EXPECT_EQ(h.alloc_site_for(a + 128), 0x1234u);  // a middle line
  EXPECT_EQ(h.alloc_site_for(a + 199), 0x1234u);  // last byte's line
  EXPECT_EQ(h.alloc_site_for(0x8), 0u);           // foreign address
}

TEST(HeapSites, DisabledTrackingReturnsZero) {
  sim::Heap h(2, 1 << 20);
  const sim::Addr a = h.alloc(0, 64, 8, 0x1234);
  EXPECT_EQ(h.alloc_site_for(a), 0u);
}

TEST(HeapSites, ReallocationOverwritesSite) {
  sim::Heap h(2, 1 << 20);
  h.set_site_tracking(true);
  const sim::Addr a = h.alloc(0, 64, 8, 0x111);
  EXPECT_EQ(h.alloc_site_for(a), 0x111u);
  h.dealloc(a);
  const sim::Addr b = h.alloc(0, 64, 8, 0x222);
  EXPECT_EQ(h.alloc_site_for(b), 0x222u);
  if (b == a) {
    EXPECT_EQ(h.alloc_site_for(a), 0x222u);
  }
}

TEST(HeapSites, HugeBlocksCapRecordedLines) {
  sim::Heap h(2, 1 << 20);
  h.set_site_tracking(true);
  // 128 lines; only the first kMaxSiteLines (64) are recorded.
  const sim::Addr a = h.alloc(0, 128 * sim::kLineBytes, 8, 0x999);
  EXPECT_EQ(h.alloc_site_for(a), 0x999u);
  EXPECT_EQ(h.alloc_site_for(a + 63 * sim::kLineBytes), 0x999u);
  EXPECT_EQ(h.alloc_site_for(a + 64 * sim::kLineBytes), 0u);
}

TEST(HeapSites, ArenaOfMapsAddressesBack) {
  sim::Heap h(3, 1 << 16);
  const sim::Addr a0 = h.alloc(0, 64);
  const sim::Addr a2 = h.alloc(2, 64);
  EXPECT_EQ(h.arena_of(a0), 0);
  EXPECT_EQ(h.arena_of(a2), 2);
  EXPECT_EQ(h.arena_of(sim::Heap::kBase - 8), -1);
}

// ------------------------------------------------------- differentials ----

TEST(ProvDifferential, ProvenanceDoesNotPerturbSimulatedResults) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  const auto off = workloads::run_workload("list-hi", o);
  EXPECT_TRUE(off.trace_path.empty());

  const std::string path = tmp_path("prov_differential.trc");
  o.trace.path = path;
  const auto on = workloads::run_workload("list-hi", o);
  EXPECT_EQ(testutil::sim_fingerprint(off), testutil::sim_fingerprint(on));
  EXPECT_GT(on.totals.commits, 0u);
  EXPECT_EQ(on.trace_path, path);

  // Every abort the stats counted must carry a blame record (the default
  // ring is far larger than this run's record count, so none dropped).
  TraceData d;
  std::string err;
  ASSERT_TRUE(read_trace_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(d.cores(), 4u);
  const std::uint64_t blamed = d.emitted(EventKind::kBlame);
  EXPECT_EQ(blamed, on.totals.total_aborts());
  EXPECT_EQ(d.emitted(EventKind::kTxAbort), blamed);
  EXPECT_EQ(d.dropped(), 0u);
  EXPECT_EQ(on.prov.blame_records, blamed);
}

TEST(ProvDifferential, TinyRingStillDoesNotPerturbResults) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 2;
  o.ops_scale = 0.05;
  const auto off = workloads::run_workload("list-hi", o);

  const std::string path = tmp_path("prov_tiny_ring.trc");
  o.trace.path = path;
  o.trace.cap_per_core = 16;  // heavy wraparound
  const auto on = workloads::run_workload("list-hi", o);
  EXPECT_EQ(testutil::sim_fingerprint(off), testutil::sim_fingerprint(on));

  TraceData d;
  std::string err;
  ASSERT_TRUE(read_trace_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  EXPECT_EQ(d.cap_per_core, 16u);
  for (unsigned c = 0; c < d.cores(); ++c) {
    std::size_t kept = 0;
    for (const Record& r : d.per_core[c].records)
      kept += r.kind() == EventKind::kBlame;
    EXPECT_LE(kept, 16u);
  }
  EXPECT_GT(d.dropped(EventKind::kBlame), 0u);  // far more than 16 aborts/core
  // Per-kind emitted counts survive the wrap: every abort was blamed.
  EXPECT_EQ(d.emitted(EventKind::kBlame), on.totals.total_aborts());
  EXPECT_EQ(on.prov.blame_records, on.totals.total_aborts());
  EXPECT_EQ(on.prov.blame_dropped, d.dropped(EventKind::kBlame));
}

/// Every hook fires in a synchronizing step, so the observer file is
/// byte-identical with step fusion off and on — not merely equivalent.
class TraceFusion : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceFusion, FileIdenticalWithStepFusionOnAndOff) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 8;
  o.ops_scale = 0.05;
  o.stm.enabled = true;
  o.max_retries = 2;  // reach the STM tier
  const std::string tag = std::string("fusion_") + GetParam();
  const std::string p1 = tmp_path((tag + "_single.trc").c_str());
  const std::string p2 = tmp_path((tag + "_fused.trc").c_str());
  o.macrostep = false;
  o.trace.path = p1;
  const auto single = workloads::run_workload(GetParam(), o);
  o.macrostep = true;
  o.trace.path = p2;
  const auto fused = workloads::run_workload(GetParam(), o);
  EXPECT_EQ(testutil::sim_fingerprint(single), testutil::sim_fingerprint(fused));
  const std::string b1 = slurp(p1), b2 = slurp(p2);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  ASSERT_FALSE(b1.empty());
  EXPECT_TRUE(b1 == b2) << "trace files differ with step fusion on/off";
}

INSTANTIATE_TEST_SUITE_P(Stm, TraceFusion,
                         ::testing::Values("list-hi", "vacation", "genome",
                                           "intruder"));

TEST(ProvDifferential, LockEpisodesClassifiedInStaggeredRun) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  const std::string path = tmp_path("prov_staggered.trc");
  o.trace.path = path;
  const auto r = workloads::run_workload("list-hi", o);
  TraceData d;
  std::string err;
  ASSERT_TRUE(read_trace_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  // A contended staggered run must produce lock-wait episodes, and the
  // classifier must reach a verdict (any class) for every one of them.
  const ProvSummary s = summarize_prov(d);
  EXPECT_GT(s.lock_episodes, 0u);
  EXPECT_EQ(s.conflict_avoided + s.false_serialization + s.indeterminate +
                s.episodes_dropped,
            s.lock_episodes);
  EXPECT_EQ(s.blame_records, r.totals.total_aborts());
}

TEST(ProvRunner, PerJobProfPathsProduceDistinctFiles) {
  const std::string p0 = tmp_path("prov_job0.trc");
  const std::string p1 = tmp_path("prov_job1.trc");
  workloads::ExperimentRunner runner(2);
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kBaseline;
  o.threads = 2;
  o.ops_scale = 0.02;
  o.trace.path = p0;
  const std::size_t j0 = runner.submit("list-hi", o);
  o.trace.path = p1;
  const std::size_t j1 = runner.submit("list-hi", o);
  const auto& r0 = runner.wait(j0);
  const auto& r1 = runner.wait(j1);
  EXPECT_EQ(r0.trace_path, p0);
  EXPECT_EQ(r1.trace_path, p1);
  TraceData d0, d1;
  std::string err;
  EXPECT_TRUE(read_trace_file(p0, &d0, &err)) << err;
  EXPECT_TRUE(read_trace_file(p1, &d1, &err)) << err;
  EXPECT_EQ(d0.emitted(EventKind::kBlame), r0.totals.total_aborts());
  EXPECT_EQ(d1.emitted(EventKind::kBlame), r1.totals.total_aborts());
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

}  // namespace
}  // namespace st::obs
