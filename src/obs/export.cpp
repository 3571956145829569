#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <map>
#include <memory>

namespace st::obs {

std::uint64_t CoreRecords::total_emitted() const {
  std::uint64_t n = 0;
  for (const std::uint64_t e : emitted) n += e;
  return n;
}

std::uint64_t TraceData::total_emitted() const {
  std::uint64_t n = 0;
  for (const CoreRecords& c : per_core) n += c.total_emitted();
  return n;
}

std::uint64_t TraceData::emitted(EventKind k) const {
  std::uint64_t n = 0;
  for (const CoreRecords& c : per_core) n += c.emitted[unsigned(k)];
  return n;
}

std::uint64_t TraceData::dropped(EventKind k) const {
  std::uint64_t stored = 0;
  for (const CoreRecords& c : per_core)
    stored += static_cast<std::uint64_t>(
        std::count_if(c.records.begin(), c.records.end(),
                      [k](const Record& r) { return r.kind() == k; }));
  return emitted(k) - stored;
}

std::uint64_t TraceData::dropped() const {
  std::uint64_t n = 0;
  for (const CoreRecords& c : per_core) n += c.dropped();
  return n;
}

TraceData snapshot(const Observer& o) {
  TraceData t;
  t.cap_per_core = o.capacity();
  t.per_core.resize(o.cores());
  for (unsigned c = 0; c < o.cores(); ++c) {
    for (unsigned k = 0; k < kNumEventKinds; ++k)
      t.per_core[c].emitted[k] = o.emitted(c, EventKind(k));
    t.per_core[c].records = o.chronological(c);
  }
  return t;
}

const char* abort_cause_name(std::uint8_t cause) {
  // Mirrors htm::AbortCause (None..Glock plus the STM-tier causes).
  static constexpr const char* kNames[] = {
      "none",      "conflict",       "capacity", "explicit",
      "glock",     "stm_validation", "stm_lock", "stm_glock"};
  return cause < 8 ? kNames[cause] : "?";
}

const char* policy_decision_name(std::uint8_t decision) {
  // Mirrors stagger::PolicyDecision (Training, Precise, Coarse, Promoted).
  static constexpr const char* kNames[] = {"training", "precise", "coarse",
                                           "promoted"};
  return decision < 4 ? kNames[decision] : "?";
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

namespace {

// All names we emit are generated from fixed tables plus numbers, so this
// only has to be correct, not fast.
void json_escape(std::FILE* f, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    std::fputc(*s, f);
  }
}

class ChromeWriter {
 public:
  static constexpr sim::Cycle kInstant = ~sim::Cycle{0};

  explicit ChromeWriter(std::FILE* f) : f_(f) {
    std::fprintf(f_, "{\"traceEvents\": [\n");
  }

  void end(const TraceData& t) {
    std::fprintf(f_,
                 "\n],\n\"displayTimeUnit\": \"ms\",\n"
                 "\"otherData\": {\"clock\": \"1 trace us = 1 simulated "
                 "cycle\", \"dropped_events\": %" PRIu64 "}\n}\n",
                 t.dropped());
  }

  void meta(const char* name, unsigned tid, const char* value) {
    sep();
    std::fprintf(f_,
                 "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %u, \"args\": {\"name\": \"",
                 name, tid);
    json_escape(f_, value);
    std::fprintf(f_, "\"}}");
  }

  /// A complete ("X") span of `dur` cycles, or a thread-scoped instant
  /// ("i") when dur is kInstant. `args_json` is a pre-rendered object body
  /// or "".
  void event(unsigned tid, const char* cat, const std::string& name,
             sim::Cycle ts, const std::string& args_json,
             sim::Cycle dur = kInstant, const char* cname = nullptr) {
    sep();
    std::fprintf(f_, "{\"name\": \"");
    json_escape(f_, name.c_str());
    std::fprintf(f_, "\", \"cat\": \"%s\", ", cat);
    if (dur == kInstant)
      std::fprintf(f_, "\"ph\": \"i\", \"s\": \"t\", ");
    else
      std::fprintf(f_, "\"ph\": \"X\", \"dur\": %" PRIu64 ", ", dur);
    std::fprintf(f_, "\"ts\": %" PRIu64 ", \"pid\": 0, \"tid\": %u", ts, tid);
    if (cname != nullptr) std::fprintf(f_, ", \"cname\": \"%s\"", cname);
    if (!args_json.empty())
      std::fprintf(f_, ", \"args\": {%s}", args_json.c_str());
    std::fprintf(f_, "}");
  }

 private:
  void sep() {
    if (!first_) std::fprintf(f_, ",\n");
    first_ = false;
  }

  std::FILE* f_;
  bool first_ = true;
};

std::string u64_arg(const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %" PRIu64, key, v);
  return buf;
}

std::string hex_arg(const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": \"0x%" PRIx64 "\"", key, v);
  return buf;
}

}  // namespace

void write_chrome_trace(const TraceData& t, std::FILE* f) {
  ChromeWriter w(f);
  w.meta("process_name", 0, "stagtm simulated machine");
  for (unsigned c = 0; c < t.cores(); ++c) {
    char name[32];
    std::snprintf(name, sizeof name, "core %u", c);
    w.meta("thread_name", c, name);
  }

  for (unsigned c = 0; c < t.cores(); ++c) {
    // Span pairing state. Ring drops can orphan an end event; orphans
    // degrade to instants so a truncated trace still loads.
    bool tx_open = false, lock_open = false;
    sim::Cycle tx_start = 0, lock_start = 0;
    std::uint32_t tx_ab = 0;
    // A commit or abort closes the attempt's span.
    auto end_attempt = [&](const Event& e, const std::string& name,
                           const std::string& args, const char* cname) {
      if (tx_open)
        w.event(c, "tx", name, tx_start, args, e.at - tx_start, cname);
      else
        w.event(c, "tx", name, e.at, args);
      tx_open = false;
    };

    for (const Record& r : t.per_core[c].records) {
      const Event& e = r.event;
      switch (r.kind()) {
        case EventKind::kTxBegin:
          tx_open = true;
          tx_start = e.at;
          tx_ab = e.a32;
          break;
        case EventKind::kIrrevocable:
          tx_open = true;
          tx_start = e.at;
          tx_ab = e.a32;
          w.event(c, "tx", "irrevocable entry", e.at, u64_arg("ab", e.a32));
          break;
        case EventKind::kTxCommit:
          end_attempt(e,
                      "tx" + std::to_string(e.a32) +
                          (e.arg8 != 0 ? " commit (irrevocable)" : " commit"),
                      u64_arg("attempts", e.a64) + ", " + u64_arg("ab", e.a32),
                      e.arg8 != 0 ? "yellow" : "good");
          break;
        case EventKind::kTxAbort: {
          const std::string name = "tx" + std::to_string(tx_open ? tx_ab : 0) +
                                   " abort: " + abort_cause_name(e.arg8);
          std::string args = hex_arg("conflict_line", e.a64) + ", " +
                             u64_arg("pc_tag", e.pc_tag);
          if (e.a32 != 0) args += ", " + u64_arg("aborter_core", e.a32 - 1);
          end_attempt(e, name, args, "terrible");
          break;
        }
        case EventKind::kLockAcquire:
          lock_open = true;
          lock_start = e.at;
          break;
        case EventKind::kLockRelease:
          if (lock_open)
            w.event(c, "lock", "advisory lock " + std::to_string(e.a32),
                    lock_start, u64_arg("lock", e.a32), e.at - lock_start,
                    "grey");
          else
            w.event(c, "lock", "release lock " + std::to_string(e.a32), e.at,
                    u64_arg("lock", e.a32));
          lock_open = false;
          break;
        case EventKind::kLockTimeout:
          w.event(c, "lock", "lock timeout " + std::to_string(e.a32), e.at,
                  u64_arg("waited_cycles", e.a64));
          break;
        case EventKind::kAlpFired:
          w.event(c, "alp", "ALP " + std::to_string(e.a32), e.at,
                  hex_arg("target_line", e.a64));
          break;
        case EventKind::kPolicyDecision:
          w.event(c, "policy",
                  std::string("policy: ") + policy_decision_name(e.arg8), e.at,
                  u64_arg("anchor_alp", e.a32) + ", " +
                      hex_arg("conflict_line", e.a64));
          break;
        case EventKind::kBackoff:
          w.event(c, "tx", "backoff", e.at, u64_arg("attempt", e.a32), e.a64,
                  "grey");
          break;
        case EventKind::kCoreDone:
          w.event(c, "sched", "core done", e.at, "");
          break;
        case EventKind::kLineEscape:
          w.event(c, "priv", "line escape", e.at,
                  hex_arg("line", e.a64) + ", " + u64_arg("owner", e.arg8) +
                      ", " + hex_arg("pc", e.a32));
          break;
        case EventKind::kBlame: {
          const Blame& b = r.blame;
          std::string args = hex_arg("line", b.line) + ", " +
                             u64_arg("wasted_cycles", b.wasted_cycles) +
                             ", " + hex_arg("alloc_site", b.alloc_site) +
                             ", " + u64_arg("retry", b.retry);
          if (b.flags & kBlameHasAggressor)
            args += ", " + u64_arg("aggressor_core", b.aggressor_core) +
                    ", " + hex_arg("aggressor_pc", b.aggressor_pc);
          w.event(c, "tx", std::string("blame: ") + abort_cause_name(b.cause),
                  b.at, args);
          break;
        }
        case EventKind::kEpisode: {
          const Episode& ep = r.episode;
          std::string args =
              u64_arg("lock", ep.lock_idx) + ", \"outcome\": \"" +
              lock_outcome_name(LockOutcome(ep.outcome)) + "\", " +
              u64_arg("wait_cycles", ep.wait_cycles);
          if (ep.holder_core != 0xFF)
            args += ", " + u64_arg("holder_core", ep.holder_core);
          w.event(c, "lock",
                  std::string("lock episode: ") +
                      lock_class_name(LockClass(ep.classification)),
                  ep.at, args);
          break;
        }
        case EventKind::kCount_:
          break;
      }
    }
  }
  w.end(t);
}

// ---------------------------------------------------------------------------
// Binary container
// ---------------------------------------------------------------------------

namespace {
constexpr char kMagic[8] = {'S', 'T', 'G', 'O', 'B', 'S', '0', '1'};

void write_binary_trace(const TraceData& t, std::FILE* f) {
  std::fwrite(kMagic, 1, 8, f);
  const std::uint32_t header[4] = {sizeof(Record), kNumEventKinds, t.cores(),
                                    0};
  std::fwrite(header, sizeof header, 1, f);
  std::fwrite(&t.cap_per_core, 8, 1, f);
  for (const CoreRecords& c : t.per_core) {
    const std::uint64_t stored = c.records.size();
    std::fwrite(c.emitted.data(), 8, kNumEventKinds, f);
    std::fwrite(&stored, 8, 1, f);
    if (stored != 0)
      std::fwrite(c.records.data(), sizeof(Record),
                  static_cast<std::size_t>(stored), f);
  }
}

}  // namespace

bool read_trace_file(const std::string& path, TraceData* out,
                     std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  std::FILE* f = file.get();
  if (f == nullptr) return fail("cannot open \"" + path + "\"");
  char magic[8];
  if (std::fread(magic, 1, 8, f) != 8)
    return fail("not a stagtm observer file (too short)");
  if (std::memcmp(magic, "STGTRC01", 8) == 0 ||
      std::memcmp(magic, "STGPRF01", 8) == 0)
    return fail("retired " + std::string(magic, 8) +
                " file: traces and provenance now share one STGOBS01 "
                "container; re-record the run with STAGTM_TRACE");
  if (std::memcmp(magic, kMagic, 8) != 0)
    return fail("not a stagtm observer file (bad magic)");
  std::uint32_t header[4];
  if (std::fread(header, sizeof header, 1, f) != 1)
    return fail("truncated header");
  if (header[0] != sizeof(Record) || header[1] != kNumEventKinds)
    return fail("record layout differs from this build's");
  const std::uint32_t cores = header[2];
  if (cores == 0 || cores > 1024) return fail("implausible core count");
  TraceData t;
  if (std::fread(&t.cap_per_core, 8, 1, f) != 1)
    return fail("truncated header");
  if (t.cap_per_core == 0 || t.cap_per_core > (1u << 24))
    return fail("implausible ring capacity");
  t.per_core.resize(cores);
  for (CoreRecords& c : t.per_core) {
    std::uint64_t stored = 0;
    if (std::fread(c.emitted.data(), 8, kNumEventKinds, f) != kNumEventKinds ||
        std::fread(&stored, 8, 1, f) != 1)
      return fail("truncated core header");
    if (stored > c.total_emitted() || stored > t.cap_per_core)
      return fail("implausible record count");
    c.records.resize(static_cast<std::size_t>(stored));
    if (stored != 0 &&
        std::fread(c.records.data(), sizeof(Record),
                   static_cast<std::size_t>(stored),
                   f) != static_cast<std::size_t>(stored))
      return fail("truncated record data");
    for (const Record& r : c.records)
      if (r.kind() >= EventKind::kCount_) return fail("unknown record kind");
  }
  *out = std::move(t);
  return true;
}

bool export_trace(const TraceData& t, const std::string& path,
                  std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open \"" + path + "\" for writing";
    return false;
  }
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json)
    write_chrome_trace(t, f);
  else
    write_binary_trace(t, f);
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// Post-hoc analysis.
// ---------------------------------------------------------------------------

ConflictGraph build_conflict_graph(const TraceData& t) {
  ConflictGraph g;
  // Deterministic node/edge numbering: keys are ordered, not hashed.
  std::map<std::uint64_t, std::uint32_t> node_of;
  auto node = [&](std::uint32_t site, std::uint32_t pc) {
    const std::uint64_t key = (std::uint64_t{site} << 32) | pc;
    auto [it, fresh] = node_of.try_emplace(
        key, static_cast<std::uint32_t>(g.nodes.size()));
    if (fresh) g.nodes.push_back({site, pc, 0, 0, 0});
    return it->second;
  };
  std::map<std::uint64_t, std::uint32_t> edge_of;
  for (const CoreRecords& c : t.per_core) {
    for (const Record& rec : c.records) {
      if (rec.kind() != EventKind::kBlame) continue;
      const Blame& r = rec.blame;
      const std::uint32_t v = node(r.alloc_site, r.victim_pc);
      g.nodes[v].aborts_as_victim += 1;
      g.nodes[v].wasted_cycles += r.wasted_cycles;
      if (!(r.flags & kBlameHasAggressor)) continue;
      const std::uint32_t a = node(r.alloc_site, r.aggressor_pc);
      g.nodes[a].aborts_as_aggressor += 1;
      const std::uint64_t ekey = (std::uint64_t{a} << 32) | v;
      auto [it, fresh] = edge_of.try_emplace(
          ekey, static_cast<std::uint32_t>(g.edges.size()));
      if (fresh) g.edges.push_back({a, v, 0, 0});
      ConflictGraph::Edge& e = g.edges[it->second];
      e.aborts += 1;
      e.wasted_cycles += r.wasted_cycles;
    }
  }
  std::sort(g.edges.begin(), g.edges.end(),
            [](const ConflictGraph::Edge& x, const ConflictGraph::Edge& y) {
              if (x.wasted_cycles != y.wasted_cycles)
                return x.wasted_cycles > y.wasted_cycles;
              if (x.src != y.src) return x.src < y.src;
              return x.dst < y.dst;
            });
  return g;
}

std::vector<LockEffectiveness> lock_effectiveness(const TraceData& t) {
  std::map<std::uint32_t, LockEffectiveness> by_lock;
  for (const CoreRecords& c : t.per_core) {
    for (const Record& rec : c.records) {
      if (rec.kind() != EventKind::kEpisode) continue;
      const Episode& r = rec.episode;
      LockEffectiveness& e = by_lock[r.lock_idx];
      e.lock_idx = r.lock_idx;
      e.episodes += 1;
      switch (static_cast<LockClass>(r.classification)) {
        case LockClass::kConflictAvoided:
          e.conflict_avoided += 1;
          e.avoided_wait_cycles += r.wait_cycles;
          break;
        case LockClass::kFalseSerialization:
          e.false_serialization += 1;
          e.false_wait_cycles += r.wait_cycles;
          break;
        case LockClass::kIndeterminate:
          e.indeterminate += 1;
          break;
      }
    }
  }
  std::vector<LockEffectiveness> out;
  out.reserve(by_lock.size());
  for (const auto& [idx, e] : by_lock) out.push_back(e);
  return out;
}

ProvSummary summarize_prov(const TraceData& t) {
  ProvSummary s;
  s.blame_records = t.emitted(EventKind::kBlame);
  s.lock_episodes = t.emitted(EventKind::kEpisode);
  s.blame_dropped = t.dropped(EventKind::kBlame);
  s.episodes_dropped = t.dropped(EventKind::kEpisode);
  for (const CoreRecords& c : t.per_core)
    for (const Record& r : c.records)
      if (r.kind() == EventKind::kBlame) {
        s.wasted_cycles += r.blame.wasted_cycles;
        if (r.blame.flags & kBlameTierStm) ++s.stm_blames;
      }
  for (const LockEffectiveness& e : lock_effectiveness(t)) {
    s.conflict_avoided += e.conflict_avoided;
    s.false_serialization += e.false_serialization;
    s.indeterminate += e.indeterminate;
    s.avoided_wait_cycles += e.avoided_wait_cycles;
    s.false_wait_cycles += e.false_wait_cycles;
  }
  const ConflictGraph g = build_conflict_graph(t);
  s.graph_nodes = static_cast<unsigned>(g.nodes.size());
  s.graph_edges = static_cast<unsigned>(g.edges.size());
  return s;
}

void write_prov_summary_json(std::FILE* f, const ProvSummary& s) {
  std::fprintf(
      f,
      "{\"blame_records\": %" PRIu64 ", \"blame_dropped\": %" PRIu64
      ", \"lock_episodes\": %" PRIu64 ", \"episodes_dropped\": %" PRIu64
      ", \"conflict_avoided\": %" PRIu64 ", \"false_serialization\": %" PRIu64
      ", \"indeterminate\": %" PRIu64 ", \"avoided_wait_cycles\": %" PRIu64
      ", \"false_wait_cycles\": %" PRIu64 ", \"wasted_cycles\": %" PRIu64
      ", \"stm_blames\": %" PRIu64 ", \"graph_nodes\": %u"
      ", \"graph_edges\": %u}",
      s.blame_records, s.blame_dropped, s.lock_episodes, s.episodes_dropped,
      s.conflict_avoided, s.false_serialization, s.indeterminate,
      s.avoided_wait_cycles, s.false_wait_cycles, s.wasted_cycles,
      s.stm_blames, s.graph_nodes, s.graph_edges);
}

}  // namespace st::obs
