// Observability: the observer's ring semantics, log2 histograms, the file
// formats, the metrics registry, strict env-knob validation, and — the
// load-bearing invariant — the observer never changing a simulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/histogram.hpp"
#include "htm/htm.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stagger/policy.hpp"
#include "test_util.hpp"
#include "workloads/harness.hpp"

namespace st::obs {
namespace {

using testutil::slurp;
using testutil::tmp_path;

// ---------------------------------------------------------------- ring ----

TEST(ObserverRing, StoresUpToCapacityWithoutDrops) {
  Observer o(2, 8);
  for (unsigned i = 0; i < 8; ++i) o.backoff(0, i, 1, i);
  EXPECT_EQ(o.emitted(0), 8u);
  EXPECT_EQ(o.emitted(0, EventKind::kBackoff), 8u);
  EXPECT_EQ(o.emitted(1), 0u);
  const auto records = o.chronological(0);
  ASSERT_EQ(records.size(), 8u);
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(records[i].event.a64, i);
}

TEST(ObserverRing, WrapKeepsNewestAndCountsDrops) {
  Observer o(1, 4);
  for (unsigned i = 0; i < 11; ++i) o.backoff(0, i, 1, i);
  EXPECT_EQ(o.emitted(0), 11u);
  EXPECT_EQ(snapshot(o).dropped(), 7u);
  // Survivors are the newest four, oldest first.
  const auto records = o.chronological(0);
  ASSERT_EQ(records.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(records[i].event.a64, 7 + i);
}

TEST(TracePath, UniquifyInsertsJobIdBeforeExtension) {
  EXPECT_EQ(uniquify_trace_path("out.json", 3), "out.3.json");
  EXPECT_EQ(uniquify_trace_path("a/b/trace.bin", 0), "a/b/trace.0.bin");
  EXPECT_EQ(uniquify_trace_path("plain", 7), "plain.7");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(uniquify_trace_path("run.d/trace", 2), "run.d/trace.2");
}

// ----------------------------------------------------------- histogram ----

TEST(Log2Hist, BucketEdges) {
  // bucket_of(v) = bit_width(v): 0 -> 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3...
  EXPECT_EQ(Log2Hist::bucket_of(0), 0u);
  EXPECT_EQ(Log2Hist::bucket_of(1), 1u);
  EXPECT_EQ(Log2Hist::bucket_of(2), 2u);
  EXPECT_EQ(Log2Hist::bucket_of(3), 2u);
  EXPECT_EQ(Log2Hist::bucket_of(4), 3u);
  EXPECT_EQ(Log2Hist::bucket_of(7), 3u);
  EXPECT_EQ(Log2Hist::bucket_of(8), 4u);
  EXPECT_EQ(Log2Hist::bucket_of((1u << 16) - 1), 16u);
  EXPECT_EQ(Log2Hist::bucket_of(1u << 16), 17u);
  // The last bucket saturates rather than overflowing the array.
  EXPECT_EQ(Log2Hist::bucket_of(~std::uint64_t{0}), Log2Hist::kBuckets - 1);
}

TEST(Log2Hist, AddTracksCountSumMaxMean) {
  Log2Hist h;
  h.add(0);
  h.add(1);
  h.add(3);
  h.add(100);
  EXPECT_EQ(h.samples, 4u);
  EXPECT_EQ(h.sum, 104u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 26.0);
  EXPECT_EQ(h.buckets[0], 1u);  // 0
  EXPECT_EQ(h.buckets[1], 1u);  // 1
  EXPECT_EQ(h.buckets[2], 1u);  // 3
  EXPECT_EQ(h.buckets[7], 1u);  // 100 in [64,127]
}

TEST(Log2Hist, MergeIsElementwise) {
  Log2Hist a, b;
  a.add(5);
  a.add(9);
  b.add(5);
  b.add(1u << 20);
  a.merge(b);
  EXPECT_EQ(a.samples, 4u);
  EXPECT_EQ(a.sum, 5u + 9u + 5u + (1u << 20));
  EXPECT_EQ(a.max, 1u << 20);
  EXPECT_EQ(a.buckets[3], 2u);  // both 5s
  EXPECT_EQ(a.buckets[21], 1u);
}

TEST(Log2Hist, MeanOnEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Log2Hist{}.mean(), 0.0);
}

// ------------------------------------------------------------ registry ----

TEST(MetricsRegistry, CoversEveryCoreStatsField) {
  // MachineStats::total(), the JSON writer and the differential tests all
  // iterate the registry, so a CoreStats field without a row would be
  // silently dropped from each of them. CoreStats holds only u64 counters
  // and Log2Hist histograms, so full coverage is a size identity.
  std::size_t bytes = 0;
  for (const CounterDef& d : counter_registry()) {
    (void)d;
    bytes += sizeof(std::uint64_t);
  }
  for (const HistDef& d : hist_registry()) {
    (void)d;
    bytes += sizeof(Log2Hist);
  }
  EXPECT_EQ(bytes, sizeof(sim::CoreStats));
  // ...and no field is counted twice.
  const auto& cs = counter_registry();
  for (std::size_t i = 0; i < cs.size(); ++i)
    for (std::size_t j = i + 1; j < cs.size(); ++j)
      EXPECT_NE(cs[i].member, cs[j].member) << cs[i].name;
  const auto& hs = hist_registry();
  for (std::size_t i = 0; i < hs.size(); ++i)
    for (std::size_t j = i + 1; j < hs.size(); ++j)
      EXPECT_NE(hs[i].member, hs[j].member) << hs[i].name;
}

TEST(MetricsRegistry, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (const CounterDef& d : counter_registry()) names.push_back(d.name);
  for (const HistDef& d : hist_registry()) names.push_back(d.name);
  ASSERT_FALSE(names.empty());
  for (const std::string& n : names) EXPECT_FALSE(n.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// ---------------------------------------------------------- name tables ----

TEST(TraceNames, AbortCauseNamesMirrorHtmEnum) {
  // The obs layer keeps its own table to avoid depending on st_htm; these
  // assertions pin the ordering so the enums cannot drift silently.
  using htm::AbortCause;
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::None)), "none");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Conflict)),
               "conflict");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Capacity)),
               "capacity");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Explicit)),
               "explicit");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Glock)), "glock");
  EXPECT_STREQ(abort_cause_name(200), "?");
}

TEST(TraceNames, PolicyDecisionNamesMirrorPolicyEnum) {
  using stagger::PolicyDecision;
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kTraining)),
               "training");
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kPrecise)),
               "precise");
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kCoarse)),
               "coarse");
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kPromoted)),
               "promoted");
  EXPECT_STREQ(policy_decision_name(99), "?");
}

TEST(TraceNames, EventKindNamesCoverEveryKind) {
  for (unsigned k = 0; k < kNumEventKinds; ++k) {
    const char* n = event_kind_name(EventKind(k));
    ASSERT_NE(n, nullptr);
    EXPECT_STRNE(n, "?");
  }
}

// ------------------------------------------------------------ exporters ----

/// Minimal recursive-descent JSON well-formedness checker — enough to catch
/// unbalanced braces, bad commas, and unquoted keys in our own writer
/// without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool ok() { return value() && (ws(), pos_ == s_.size()); }

 private:
  bool value() {
    switch (ws()) {
      case '{': return list('}', true);
      case '[': return list(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  /// An object (members `"key": value`) or an array, opener at pos_.
  bool list(char close, bool members) {
    ++pos_;
    if (ws() == close) return ++pos_, true;
    for (;;) {
      if (members && !(ws() == '"' && string() && ws() == ':' && ++pos_))
        return false;
      if (!value()) return false;
      const char c = ws();
      ++pos_;
      if (c == close) return true;
      if (c != ',') return false;
    }
  }
  bool string() {
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') ++pos_;
      else if (s_[pos_] == '"') return ++pos_, true;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr("-+.eE", s_[pos_]) != nullptr))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  /// Skips whitespace; returns the next character ('\0' at the end).
  char ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TraceData busy_trace() {
  Observer o(2, 32);
  // Core 0: a conflict-aborted transaction, retried under an advisory lock.
  o.tx_begin(0, 10, 0, 0, 1);
  o.conflict_stamp(0, 1, 0x42);
  AbortReport a;
  a.cause = std::uint8_t(htm::AbortCause::Conflict);
  a.line = 0x1040;
  a.pc_tag_valid = true;
  a.pc_tag = 0x123;
  a.first_pc = 0x10;
  a.aborter = 1;
  o.tx_abort(0, 25, a, {0x1040});
  o.attempt_abort(0, 25, 1, 15, false);
  o.backoff(0, 40, 1, 64);
  o.alp_fired(0, 104, 7, 0x1040);
  o.lock_acquire(0, 110, 5, 0x1040);
  o.tx_begin(0, 111, 0, 0, 2);
  o.tx_commit(0, 150, 0, 0, 2);
  o.lock_release(0, 151, 5, 41);
  o.line_escape(0, 155, 1, 0x20, 0x2000);
  o.core_done(0, 160);
  // Core 1: a policy decision, a timed-out lock wait, an irrevocable run.
  o.tx_begin(1, 20, 0, 1, 1);
  o.lock_wait(1, 28, 5, 0x1040, 0);
  o.policy_decision(1, 30, std::uint8_t(stagger::PolicyDecision::kPrecise),
                    7, 0x1040);
  o.lock_timeout(1, 90, 5, 2000);
  o.tx_commit(1, 92, 0, 1, 1);
  o.irrevocable(1, 95, 1, 1);
  o.tx_commit(1, 140, 1, 1, 1);
  o.core_done(1, 141);
  return snapshot(o);
}

std::string chrome_json(const TraceData& t) {
  const std::string path = tmp_path("obs_chrome_test.json");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return "";
  write_chrome_trace(t, f);
  std::fclose(f);
  const std::string json = slurp(path);
  std::remove(path.c_str());
  return json;
}

TEST(TraceExport, ChromeTraceIsWellFormedJson) {
  const TraceData t = busy_trace();
  const std::string json = chrome_json(t);
  EXPECT_TRUE(JsonChecker(json).ok()) << json;
  for (const char* bad :
       {"{\"a\": 1,}", "[1 2]", "{a: 1}", "[\"x\"", "{} {}"})
    EXPECT_FALSE(JsonChecker(bad).ok()) << bad;  // the checker has teeth
  // Spot-check the shape: a process name, spans, an abort span.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("abort: conflict"), std::string::npos);
  EXPECT_NE(json.find("advisory lock"), std::string::npos);
  EXPECT_NE(json.find("line escape"), std::string::npos);
  EXPECT_NE(json.find("blame: conflict"), std::string::npos);
  EXPECT_NE(json.find("lock episode: indeterminate"), std::string::npos);
  // Every record kind present in the ring shows up in the JSON: dropping
  // that kind's records changes the output.
  for (unsigned k = 0; k < kNumEventKinds; ++k) {
    ASSERT_GT(t.emitted(EventKind(k)), 0u)
        << "busy_trace lacks " << event_kind_name(EventKind(k));
    TraceData without = t;
    for (CoreRecords& c : without.per_core)
      std::erase_if(c.records,
                    [k](const Record& r) { return r.kind() == EventKind(k); });
    EXPECT_NE(chrome_json(without), json)
        << event_kind_name(EventKind(k)) << " records yield no JSON event";
  }
}

TEST(TraceExport, BinaryRoundTripPreservesEverything) {
  const TraceData orig = busy_trace();
  const std::string path = tmp_path("obs_binary_test.trc");
  std::string err;
  ASSERT_TRUE(export_trace(orig, path, &err)) << err;
  TraceData back;
  ASSERT_TRUE(read_trace_file(path, &back, &err)) << err;
  std::remove(path.c_str());

  ASSERT_EQ(back.cores(), orig.cores());
  EXPECT_EQ(back.cap_per_core, orig.cap_per_core);
  for (unsigned c = 0; c < orig.cores(); ++c) {
    EXPECT_EQ(back.per_core[c].emitted, orig.per_core[c].emitted);
    ASSERT_EQ(back.per_core[c].records.size(),
              orig.per_core[c].records.size());
    EXPECT_EQ(std::memcmp(back.per_core[c].records.data(),
                          orig.per_core[c].records.data(),
                          orig.per_core[c].records.size() * sizeof(Record)),
              0);
  }
}

TEST(TraceExport, ReaderRejectsGarbage) {
  // A well-formed container cut short, and a junk file (the retired formats
  // are ProvBinary.RejectsGarbage's).
  const std::string path = tmp_path("obs_garbage_test.trc");
  std::string err;
  ASSERT_TRUE(export_trace(busy_trace(), path, &err)) << err;
  const std::string whole = slurp(path);
  for (const std::string& bytes :
       {whole.substr(0, whole.size() - 1), std::string("not a trace")}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    TraceData t;
    EXPECT_FALSE(read_trace_file(path, &t, &err));
    EXPECT_FALSE(err.empty());
  }
  std::remove(path.c_str());
}

// ----------------------------------------------- the observer invariant ----

TEST(TraceDifferential, TracingDoesNotPerturbSimulatedResults) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  const auto off = workloads::run_workload("list-hi", o);

  const std::string path = tmp_path("obs_differential.trc");
  o.trace.path = path;
  const auto on = workloads::run_workload("list-hi", o);
  EXPECT_EQ(testutil::sim_fingerprint(off), testutil::sim_fingerprint(on));
  EXPECT_GT(on.totals.commits, 0u);

  // And the file itself must be readable and consistent with the stats.
  TraceData t;
  std::string err;
  ASSERT_TRUE(read_trace_file(path, &t, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(t.cores(), 4u);
  std::uint64_t commits = 0;
  for (const CoreRecords& c : t.per_core)
    for (const Record& r : c.records)
      if (r.kind() == EventKind::kTxCommit) ++commits;
  EXPECT_EQ(commits, on.totals.commits);
  EXPECT_EQ(on.trace_path, path);
}

TEST(TraceDifferential, TinyRingStillDoesNotPerturbResults) {
  workloads::RunOptions o;
  o.threads = 2;
  o.ops_scale = 0.05;
  o.scheme = runtime::Scheme::kStaggered;
  const auto off = workloads::run_workload("list-hi", o);

  // A 16-record ring guarantees heavy wraparound; drops must stay
  // invisible to the simulation and be counted in the file. The blame
  // side of the same wrap is checked in prov_test.cpp.
  const std::string path = tmp_path("obs_tiny_ring.trc");
  o.trace.path = path;
  o.trace.cap_per_core = 16;
  const auto on = workloads::run_workload("list-hi", o);
  EXPECT_EQ(testutil::sim_fingerprint(off), testutil::sim_fingerprint(on));

  TraceData t;
  std::string err;
  ASSERT_TRUE(read_trace_file(path, &t, &err)) << err;
  std::remove(path.c_str());
  EXPECT_EQ(t.cap_per_core, 16u);
  for (const CoreRecords& c : t.per_core) EXPECT_LE(c.records.size(), 16u);
  EXPECT_GT(t.dropped(), 0u);
}

// ------------------------------------------------------------ env knobs ----

using ObsEnvDeath = ::testing::Test;

TEST(ObsEnvDeath, BadTraceCapExits2) {
  ASSERT_EQ(setenv("STAGTM_TRACE", "/tmp/x.trc", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "banana", 1), 0);
  EXPECT_EXIT(workloads::options_from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_TRACE_CAP must be");
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "0", 1), 0);  // below minimum
  EXPECT_EXIT(workloads::options_from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_TRACE_CAP must be");
  unsetenv("STAGTM_TRACE_CAP");
  unsetenv("STAGTM_TRACE");
}

TEST(ObsEnv, TraceKnobsParse) {
  ASSERT_EQ(setenv("STAGTM_TRACE", "/tmp/knobs.json", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "1024", 1), 0);
  const TraceConfig cfg = workloads::options_from_env().trace;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.path, "/tmp/knobs.json");
  EXPECT_EQ(cfg.cap_per_core, 1024u);
  unsetenv("STAGTM_TRACE_CAP");
  unsetenv("STAGTM_TRACE");
  const TraceConfig off = workloads::options_from_env().trace;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.cap_per_core, TraceConfig{}.cap_per_core);
}

TEST(ObsEnvDeath, EnvFlag01RejectsJunk) {
  ASSERT_EQ(setenv("STAGTM_TEST_FLAG", "yes", 1), 0);
  EXPECT_EXIT(env_flag01("STAGTM_TEST_FLAG", false),
              ::testing::ExitedWithCode(2), "STAGTM_TEST_FLAG must be 0 or 1");
  unsetenv("STAGTM_TEST_FLAG");
  EXPECT_FALSE(env_flag01("STAGTM_TEST_FLAG", false));
  EXPECT_TRUE(env_flag01("STAGTM_TEST_FLAG", true));
}

}  // namespace
}  // namespace st::obs
