// perfbench — host cost of three simulations, phase by phase and layer by
// layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// A workload is one program under one scheme, STM setting, retry budget and
// scale on 16 simulated cores. A run simulates kSeedsPerRun seeds derived
// from --seed (seed, seed+1000, ...) round-robin, one simulation at a time on
// one host thread, in whole rounds that fit in --seconds (at least one), so
// every seed is sampled equally often. Host times are medians over all
// simulations; simulated results are means over the seeds. The simulated
// caches start empty in every simulation.
//
// Host times are reported in reference seconds. A fixed reference kernel,
// which uses nothing from src/, runs before the first simulation and after
// every one; a simulation's host times are scaled by kRefNominalS over the
// mean of the two reference passes around it. The shared host's speed drifts
// by tens of percent within minutes, and the scaling cancels the part of the
// drift that the kernel shares with the simulator. A change to src/ moves
// reference seconds in the same proportion as raw ones.
//
// Every simulation replays run_workload()'s phase sequence through the same
// public calls — Workload::build_ir, stagger::compile, the TxSystem
// constructor, Workload::setup, one CoreTask per core driving a TxExecutor as
// the harness's WorkloadThread does, TxSystem::run, Workload::verify — and
// times them from outside. Before timing, run_workload() itself runs once on
// the first seed; the replay must match it on a simulated fingerprint, and
// every later simulation of a seed must match the first one's sim_digest.
//
// --trace 0 times phase boundaries only and prints the end-to-end metrics.
// --trace 1 alternates untraced simulations with traced ones, which also time
// every executor step (classified by kind) and every op dispatch, and prints
// the per-layer metrics, including the tracing overhead on sim_s.
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. Exits 2 on bad usage or when any STAGTM_* variable is
// set: those knobs change the measured program behind the benchmark's back.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "runtime/tx_executor.hpp"
#include "workloads/harness.hpp"

extern char** environ;

namespace {

using namespace st;
using Clock = std::chrono::steady_clock;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct WorkloadDef {
  const char* name;
  const char* program;  // workload registry name
  runtime::Scheme scheme;
  bool stm;
  unsigned max_retries;
  double scale;
};

constexpr WorkloadDef kWorkloads[] = {
    {"listhi-staggered", "list-hi", runtime::Scheme::kStaggered, false, 10,
     0.25},
    {"genome-htm", "genome", runtime::Scheme::kBaseline, false, 10, 1.0},
    {"intruder-hybrid", "intruder", runtime::Scheme::kBaseline, true, 2, 0.25},
};

constexpr unsigned kCores = 16;
constexpr unsigned kSeedsPerRun = 8;
constexpr std::uint64_t kSeedStride = 1000;
constexpr double kSelftestScale = 0.02;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

workloads::RunOptions make_options(const WorkloadDef& w, std::uint64_t seed,
                                   double scale) {
  workloads::RunOptions o;
  o.scheme = w.scheme;
  o.threads = kCores;
  o.seed = seed;
  o.ops_scale = scale;
  o.max_retries = w.max_retries;
  o.stm = stm::StmConfig{};  // default STM retries and orecs
  o.stm.enabled = w.stm;
  return o;
}

// ---- host speed reference --------------------------------------------------

/// Reported host times are raw times × kRefNominalS / (reference pass time).
constexpr double kRefNominalS = 0.03;
constexpr std::uint32_t kRefSlots = 1u << 18;  // 1 MiB of indices
constexpr unsigned kRefSteps = 1u << 23;

/// A fixed kernel that stands in for the simulator's own mix of work: a
/// data-dependent walk over a table, each step dispatched through a switch
/// on the loaded value. It uses nothing from src/, so no change to the
/// simulator changes its time. The table fits in a private L2 so that the
/// kernel slows about as much as the simulator when other tenants load the
/// shared caches; a table that spills out of L2 slows several times more.
class HostReference {
 public:
  HostReference() : table_(kRefSlots) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x >> 32);
    }
  }

  /// Raw host seconds of one pass.
  double pass() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t a = 1, b = 2;
    std::uint32_t p = 0;
    for (unsigned i = 0; i < kRefSteps; ++i) {
      p = (table_[p] ^ static_cast<std::uint32_t>(a)) & (kRefSlots - 1);
      switch (p & 7) {
        case 0: a += b; break;
        case 1: a ^= a >> 11; break;
        case 2: b = b * 6364136223846793005ull + 1442695040888963407ull; break;
        case 3: a = (a << 3) | (a >> 61); break;
        case 4: b ^= a; break;
        case 5: a *= 0x9e3779b97f4a7c15ull; break;
        case 6: b += a >> 7; break;
        default: a -= b; break;
      }
    }
    sink_ = a + b + p;  // keeps the walk from being optimized away
    const double s = seconds_between(t0, Clock::now());
    passes_.push_back(s);
    return s;
  }

  const std::vector<double>& passes() const { return passes_; }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> passes_;
  volatile std::uint64_t sink_ = 0;
};

// ---- tracing -------------------------------------------------------------

enum Kind : unsigned { kInstr, kSpin, kBackoff, kOther, kKinds };
constexpr const char* kKindNames[kKinds] = {"instr", "spin", "backoff",
                                            "other"};

/// Host-side spans and counts of one traced simulation.
struct Trace {
  std::uint64_t events = 0;          // CoreTask::step calls
  std::uint64_t step_calls = 0;      // TxExecutor::step calls
  std::uint64_t dispatch_calls = 0;  // next_op + TxExecutor::start
  std::uint64_t finish_polls = 0;    // steps that found the schedule done
  std::uint64_t dispatch_ns = 0;
  std::array<std::uint64_t, kKinds> steps{};
  std::array<std::uint64_t, kKinds> step_ns{};
  std::uint64_t step_instrs = 0;  // instrs_retired() deltas over all steps

  std::uint64_t all_step_ns() const {
    std::uint64_t n = 0;
    for (std::uint64_t v : step_ns) n += v;
    return n;
  }
};

/// The harness publishes op arguments to the privacy map, a host-side
/// classifier that a planned cleanup may delete; the replay follows the
/// harness on either side of that change.
void publish_args(auto& sys, unsigned thread,
                  const std::vector<std::uint64_t>& args) {
  if constexpr (requires { sys.privacy(); }) {
    auto& priv = sys.privacy();
    for (std::uint64_t a : args)
      if (priv.foreign_private(thread, a)) priv.publish_value(thread, a, 0);
  }
}

/// The harness's WorkloadThread, replayed: interleaves think time with
/// atomic blocks run through a TxExecutor. With a Trace it also times and
/// classifies every call it makes into the runtime and the workload.
class BenchThread final : public sim::CoreTask {
 public:
  BenchThread(runtime::TxSystem& sys, workloads::Workload& wl, unsigned thread,
              std::uint64_t ops, Trace* trace)
      : sys_(sys),
        wl_(wl),
        exec_(sys, thread),
        thread_(thread),
        ops_(ops),
        trace_(trace) {}

  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    if (trace_ != nullptr) ++trace_->events;
    if (finished_) return finish_poll();
    if (active_) {
      if (!exec_.finished())
        return trace_ != nullptr ? traced_step(m)
                                 : exec_.step(m.fuse_budget());
      wl_.on_result(thread_, done_ops_, exec_.take_result());
      active_ = false;
      ++done_ops_;
    }
    if (done_ops_ >= ops_) {
      finished_ = true;
      return finish_poll();
    }
    const Clock::time_point t0 =
        trace_ != nullptr ? Clock::now() : Clock::time_point{};
    workloads::Workload::Op op = wl_.next_op(sys_, thread_, done_ops_);
    publish_args(sys_, thread_, op.args);
    sys_.stats().core(thread_).cycles_nontx += op.think;
    exec_.start(op.ab_id, std::move(op.args));
    if (trace_ != nullptr) {
      ++trace_->dispatch_calls;
      trace_->dispatch_ns += ns_since(t0);
    }
    active_ = true;
    return op.think + 1;
  }

  bool done() const override { return finished_; }

  bool next_step_local(const sim::Machine&, sim::CoreId) const override {
    return !finished_ && active_ && !exec_.finished() &&
           exec_.next_step_local();
  }

 private:
  sim::Cycle finish_poll() {
    if (trace_ != nullptr) ++trace_->finish_polls;
    return 1;
  }

  /// One executor step, classified by what it changed: lock-wait cycles
  /// (an advisory-lock, glock or orec spin), backoff cycles (an abort and
  /// its backoff), retired instructions, or none of these.
  sim::Cycle traced_step(sim::Machine& m) {
    const sim::CoreStats& st = sys_.stats().core(thread_);
    const std::uint64_t instrs = exec_.instrs_retired();
    const std::uint64_t wait = st.cycles_lock_wait;
    const std::uint64_t backoff = st.cycles_backoff;
    const Clock::time_point t0 = Clock::now();
    const sim::Cycle used = exec_.step(m.fuse_budget());
    const std::uint64_t ns = ns_since(t0);
    const std::uint64_t retired = exec_.instrs_retired() - instrs;
    const Kind k = st.cycles_lock_wait != wait    ? kSpin
                   : st.cycles_backoff != backoff ? kBackoff
                   : retired != 0                 ? kInstr
                                                  : kOther;
    ++trace_->step_calls;
    ++trace_->steps[k];
    trace_->step_ns[k] += ns;
    trace_->step_instrs += retired;
    return used;
  }

  runtime::TxSystem& sys_;
  workloads::Workload& wl_;
  runtime::TxExecutor exec_;
  unsigned thread_;
  std::uint64_t ops_;
  std::uint64_t done_ops_ = 0;
  bool active_ = false;
  bool finished_ = false;
  Trace* trace_;
};

// ---- simulated results ---------------------------------------------------

constexpr const char* kFingerprintFields[] = {
    "cycles",          "commits",          "aborts_conflict",
    "aborts_capacity", "aborts_explicit",  "aborts_glock",
    "stm_validation",  "stm_lock",         "stm_glock",
    "interp_instrs",   "l1_hits",          "l1_misses",
    "stm_commits"};
using Fingerprint = std::array<std::uint64_t, std::size(kFingerprintFields)>;

Fingerprint fingerprint(sim::Cycle cycles, const sim::CoreStats& t) {
  return {cycles,
          t.commits,
          t.aborts_conflict,
          t.aborts_capacity,
          t.aborts_explicit,
          t.aborts_glock,
          t.stm_aborts_validation,
          t.stm_aborts_lock,
          t.stm_aborts_glock,
          t.interp_instrs,
          t.l1_hits,
          t.l1_misses,
          t.stm_commits};
}

/// FNV-1a over the makespan and every simulated per-core counter and
/// histogram, in core order. Host-side diagnostics (directory probes,
/// speculative-log high-water mark, privacy counts) are left out.
std::uint64_t sim_digest(sim::Cycle cycles, const sim::MachineStats& stats) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_hist = [&mix](const Log2Hist& x) {
    for (std::uint64_t b : x.buckets) mix(b);
    mix(x.samples);
    mix(x.sum);
    mix(x.max);
  };
  mix(cycles);
  for (unsigned c = 0; c < stats.cores(); ++c) {
    const sim::CoreStats& s = stats.core(c);
    for (std::uint64_t v :
         {s.commits, s.aborts_conflict, s.aborts_capacity, s.aborts_explicit,
          s.aborts_glock, s.irrevocable_entries, s.stm_commits,
          s.stm_aborts_validation, s.stm_aborts_lock, s.stm_aborts_glock,
          s.stm_orec_waits, s.stm_lock_acquires, s.cycles_useful_tx,
          s.cycles_wasted_tx, s.cycles_lock_wait, s.cycles_backoff,
          s.cycles_irrevocable, s.cycles_nontx, s.tx_instrs, s.tx_mem_ops,
          s.interp_instrs, s.alp_executed, s.alp_acquires, s.alp_timeouts,
          s.anchor_id_correct, s.anchor_id_wrong, s.l1_hits, s.l1_misses})
      mix(v);
    mix_hist(s.h_tx_cycles);
    mix_hist(s.h_tx_retries);
    mix_hist(s.h_lock_hold);
    mix_hist(s.h_spec_footprint);
    mix_hist(s.h_tx_backoff);
  }
  return h;
}

// ---- one simulation --------------------------------------------------------

/// Phase times and results of one replayed simulation. Host times are raw
/// seconds until normalize() turns them into reference seconds.
struct Sim {
  double build_s = 0;     // Workload::build_ir
  double compile_s = 0;   // stagger::compile
  double init_s = 0;      // TxSystem constructor
  double wl_setup_s = 0;  // Workload::setup
  double run_s = 0;       // TxSystem::run
  double verify_s = 0;    // Workload::verify
  double wall_s = 0;      // build_ir through verify
  double raw_run_s = 0;   // run_s before normalize()
  double ref_s = 0;       // mean raw reference pass around the simulation
  sim::Cycle cycles = 0;
  sim::CoreStats totals;
  std::uint64_t digest = 0;
  Trace trace;

  double setup_s() const { return build_s + compile_s + init_s + wl_setup_s; }

  /// Rescales every host time to a host whose reference pass takes
  /// kRefNominalS, given the raw reference time `ref` around this simulation.
  void normalize(double ref) {
    ref_s = ref;
    raw_run_s = run_s;
    const double k = kRefNominalS / ref;
    for (double* t : {&build_s, &compile_s, &init_s, &wl_setup_s, &run_s,
                      &verify_s, &wall_s})
      *t *= k;
    const auto scale_ns = [k](std::uint64_t& ns) {
      ns = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(ns) * k));
    };
    scale_ns(trace.dispatch_ns);
    for (std::uint64_t& ns : trace.step_ns) scale_ns(ns);
  }
};

Sim simulate(const WorkloadDef& w, std::uint64_t seed, double scale,
             bool traced) {
  const workloads::RunOptions opt = make_options(w, seed, scale);
  const runtime::RuntimeConfig rt = workloads::make_runtime_config(opt);
  const auto wl = workloads::make_workload(w.program);
  ST_CHECK_MSG(wl != nullptr, "unknown workload");
  Sim s;

  const Clock::time_point t0 = Clock::now();
  ir::Module m;
  wl->build_ir(m);
  const Clock::time_point t1 = Clock::now();
  auto prog = stagger::compile(m, runtime::instrument_mode_for(opt.scheme),
                               opt.pc_tag_bits);
  const Clock::time_point t2 = Clock::now();
  runtime::TxSystem sys(rt, prog);
  const Clock::time_point t3 = Clock::now();
  wl->setup(sys);
  const Clock::time_point t4 = Clock::now();
  const auto ops = static_cast<std::uint64_t>(
      static_cast<double>(wl->ops_per_thread()) * opt.ops_scale);
  ST_CHECK(ops >= 1);
  for (unsigned t = 0; t < opt.threads; ++t)
    sys.machine().set_task(
        t, std::make_unique<BenchThread>(sys, *wl, t, ops,
                                         traced ? &s.trace : nullptr));
  const Clock::time_point t5 = Clock::now();
  s.cycles = sys.run();
  const Clock::time_point t6 = Clock::now();
  wl->verify(sys);
  const Clock::time_point t7 = Clock::now();

  s.build_s = seconds_between(t0, t1);
  s.compile_s = seconds_between(t1, t2);
  s.init_s = seconds_between(t2, t3);
  s.wl_setup_s = seconds_between(t3, t4);
  s.run_s = seconds_between(t5, t6);
  s.verify_s = seconds_between(t6, t7);
  s.wall_s = seconds_between(t0, t7);
  s.totals = sys.stats().total();
  s.digest = sim_digest(s.cycles, sys.stats());
  return s;
}

/// The traced run's counter invariants; "" when all hold.
std::string sanity_failure(const Sim& s) {
  const Trace& t = s.trace;
  std::uint64_t kinds = 0;
  for (std::uint64_t n : t.steps) kinds += n;
  if (kinds != t.step_calls) return "step kinds do not partition step calls";
  if (t.events != t.step_calls + t.dispatch_calls + t.finish_polls)
    return "events != step calls + dispatch calls + finish polls";
  if (t.step_instrs != s.totals.interp_instrs)
    return "per-step instruction deltas != interp_instrs";
  return "";
}

/// Compares the replay with run_workload() on the same options; prints any
/// differing field to stderr. True when they match.
bool matches_harness(const WorkloadDef& w, std::uint64_t seed, double scale,
                     const Sim& replay) {
  const workloads::RunResult r =
      workloads::run_workload(w.program, make_options(w, seed, scale));
  const Fingerprint want = fingerprint(r.cycles, r.totals);
  const Fingerprint got = fingerprint(replay.cycles, replay.totals);
  for (std::size_t i = 0; i < want.size(); ++i)
    if (want[i] != got[i])
      std::fprintf(stderr, "perfbench: %s seed %llu: %s %llu (run_workload) "
                   "!= %llu (replay)\n",
                   w.name, static_cast<unsigned long long>(seed),
                   kFingerprintFields[i],
                   static_cast<unsigned long long>(want[i]),
                   static_cast<unsigned long long>(got[i]));
  return want == got;
}

// ---- aggregation -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<Sim>& sims, F f) {
  std::vector<double> v;
  v.reserve(sims.size());
  for (const Sim& s : sims) v.push_back(f(s));
  return median(std::move(v));
}

double run_s(const Sim& s) { return s.run_s; }

template <class F>
double mean_of(const std::vector<Sim>& sims, F f) {
  double sum = 0;
  for (const Sim& s : sims) sum += static_cast<double>(f(s));
  return sims.empty() ? 0 : sum / static_cast<double>(sims.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  std::printf("}}\n");
}

std::vector<Metric> end_to_end_metrics(const std::vector<Sim>& sims,
                                       double peak_rss_mb) {
  double aborts = 0, commits = 0;
  for (const Sim& s : sims) {
    aborts += static_cast<double>(s.totals.total_aborts());
    commits += static_cast<double>(s.totals.commits);
  }
  return {
      {"setup_s", median_of(sims, [](const Sim& s) { return s.setup_s(); }),
       "s"},
      {"sim_s", median_of(sims, run_s), "s"},
      {"wall_s", median_of(sims, [](const Sim& s) { return s.wall_s; }), "s"},
      {"sim_minstr_per_s",
       median_of(sims,
                 [](const Sim& s) {
                   return ratio(static_cast<double>(s.totals.interp_instrs),
                                s.run_s * 1e6);
                 }),
       "Minstr/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_cycles", mean_of(sims, [](const Sim& s) { return s.cycles; }),
       "cycles"},
      {"aborts_per_commit", ratio(aborts, commits), "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Sim>& traced,
                                      const std::vector<Sim>& untraced) {
  const auto ms = [&traced](double Sim::*phase) {
    return median_of(traced, [phase](const Sim& s) { return s.*phase * 1e3; });
  };
  const auto count = [&traced](std::uint64_t sim::CoreStats::*field) {
    return mean_of(traced, [field](const Sim& s) { return s.totals.*field; });
  };
  const auto sched_self_ns = [](const Sim& s) {
    return s.run_s * 1e9 -
           static_cast<double>(s.trace.all_step_ns() + s.trace.dispatch_ns);
  };
  const double events =
      mean_of(traced, [](const Sim& s) { return s.trace.events; });
  const double instrs = count(&sim::CoreStats::interp_instrs);
  const double hits = count(&sim::CoreStats::l1_hits);
  const double misses = count(&sim::CoreStats::l1_misses);
  const double useful = count(&sim::CoreStats::cycles_useful_tx);
  const double wasted = count(&sim::CoreStats::cycles_wasted_tx);
  const double irrev = count(&sim::CoreStats::cycles_irrevocable);
  const double anchors_ok = count(&sim::CoreStats::anchor_id_correct);
  const double anchors_all =
      anchors_ok + count(&sim::CoreStats::anchor_id_wrong);

  std::vector<Metric> out = {
      {"ir.build_ms", ms(&Sim::build_s), "ms"},
      {"stagger.compile_ms", ms(&Sim::compile_s), "ms"},
      {"runtime.init_ms", ms(&Sim::init_s), "ms"},
      {"workloads.setup_ms", ms(&Sim::wl_setup_s), "ms"},
      {"workloads.dispatch_ms", median_of(traced,
                                          [](const Sim& s) {
                                            return s.trace.dispatch_ns / 1e6;
                                          }),
       "ms"},
      {"workloads.dispatch_calls",
       mean_of(traced, [](const Sim& s) { return s.trace.dispatch_calls; }),
       "count"},
      {"workloads.verify_ms", ms(&Sim::verify_s), "ms"},
      {"sim.events", events, "count"},
      {"sim.sched_self_ms",
       median_of(traced, [&](const Sim& s) { return sched_self_ns(s) / 1e6; }),
       "ms"},
      {"sim.sched_ns_per_event", median_of(traced,
                                           [&](const Sim& s) {
                                             return ratio(
                                                 sched_self_ns(s),
                                                 static_cast<double>(
                                                     s.trace.events));
                                           }),
       "ns"},
      {"runtime.step_ms", median_of(traced,
                                    [](const Sim& s) {
                                      return s.trace.all_step_ns() / 1e6;
                                    }),
       "ms"},
      {"runtime.step_calls",
       mean_of(traced, [](const Sim& s) { return s.trace.step_calls; }),
       "count"},
  };
  for (unsigned k = 0; k < kKinds; ++k)
    out.push_back(
        {std::string("runtime.steps.") + kKindNames[k],
         mean_of(traced, [k](const Sim& s) { return s.trace.steps[k]; }),
         "count"});
  for (unsigned k = 0; k < kKinds; ++k)
    out.push_back(
        {std::string("runtime.step_ms.") + kKindNames[k],
         median_of(traced,
                   [k](const Sim& s) { return s.trace.step_ns[k] / 1e6; }),
         "ms"});
  const std::vector<Metric> rest = {
      {"interp.instrs", instrs, "count"},
      {"interp.instrs_per_event", ratio(instrs, events), "instr/event"},
      {"mem.l1_hits", hits, "count"},
      {"mem.l1_misses", misses, "count"},
      {"mem.l1_miss_ratio", ratio(misses, hits + misses), "ratio"},
      {"mem.dir_probes", count(&sim::CoreStats::dir_probes), "count"},
      {"htm.commits", mean_of(traced,
                              [](const Sim& s) {
                                return s.totals.commits -
                                       s.totals.irrevocable_entries -
                                       s.totals.stm_commits;
                              }),
       "count"},
      {"htm.aborts_conflict", count(&sim::CoreStats::aborts_conflict), "count"},
      {"htm.aborts_capacity", count(&sim::CoreStats::aborts_capacity), "count"},
      {"htm.aborts_explicit", count(&sim::CoreStats::aborts_explicit), "count"},
      {"htm.aborts_glock", count(&sim::CoreStats::aborts_glock), "count"},
      {"htm.wasted_cycle_share", ratio(wasted, useful + wasted + irrev),
       "ratio"},
      {"runtime.irrevocable_entries",
       count(&sim::CoreStats::irrevocable_entries), "count"},
      {"stagger.alp_executed", count(&sim::CoreStats::alp_executed), "count"},
      {"stagger.alp_acquires", count(&sim::CoreStats::alp_acquires), "count"},
      {"stagger.alp_timeouts", count(&sim::CoreStats::alp_timeouts), "count"},
      {"stagger.lock_wait_cycles", count(&sim::CoreStats::cycles_lock_wait),
       "cycles"},
      {"stagger.anchor_accuracy",
       anchors_all == 0 ? 1.0 : anchors_ok / anchors_all, "ratio"},
      {"stm.commits", count(&sim::CoreStats::stm_commits), "count"},
      {"stm.aborts", mean_of(traced,
                             [](const Sim& s) {
                               return s.totals.stm_aborts_validation +
                                      s.totals.stm_aborts_lock +
                                      s.totals.stm_aborts_glock;
                             }),
       "count"},
      {"stm.orec_waits", count(&sim::CoreStats::stm_orec_waits), "count"},
      {"trace.overhead_s",
       median_of(traced, run_s) - median_of(untraced, run_s), "s"},
      {"host.ref_ms",
       median_of(untraced, [](const Sim& s) { return s.ref_s * 1e3; }), "ms"},
      {"host.raw_sim_s",
       median_of(untraced, [](const Sim& s) { return s.raw_run_s; }), "s"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

// ---- command line ----------------------------------------------------------

void print_config(const WorkloadDef& w,
                  const std::vector<std::uint64_t>& seeds) {
  const stm::StmConfig stm = make_options(w, 0, w.scale).stm;
  std::string list;
  for (std::uint64_t s : seeds)
    list += (list.empty() ? "" : ", ") + std::to_string(s);
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"program\": \"%s\", "
      "\"scheme\": \"%s\", \"cores\": %u, \"scale\": %g, \"seeds\": [%s], "
      "\"max_retries\": %u, \"stm\": {\"enabled\": %s, \"retries\": %u, "
      "\"orecs\": %u}, \"host_threads\": 1, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\"}}\n",
      w.name, w.program, runtime::scheme_name(w.scheme), kCores, w.scale,
      list.c_str(), w.max_retries, stm.enabled ? "true" : "false",
      stm.retries, stm.orecs, PERFBENCH_BUILD_TYPE, kCompiler);
}

/// Peak resident memory (MB) of one simulation, run in a child forked before
/// this process has simulated anything; -1 when the child fails. The
/// parent's own peak would depend on how many simulations fit in the run,
/// as each one reuses and fragments the allocator's memory differently.
double peak_rss_mb_of_one_simulation(const WorkloadDef& w, std::uint64_t seed) {
  std::fflush(stdout);  // the child exits without flushing it again
  const pid_t pid = fork();
  if (pid == 0) {
    simulate(w, seed, w.scale, false);
    _exit(0);
  }
  int status = 0;
  rusage ru{};
  if (pid < 0 || wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return -1;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int run_bench(const WorkloadDef& w, std::uint64_t seed, double seconds,
              bool traced) {
  std::vector<std::uint64_t> seeds;
  for (unsigned i = 0; i < kSeedsPerRun; ++i)
    seeds.push_back(seed + i * kSeedStride);
  print_config(w, seeds);

  std::uint64_t attempted = 1, failed = 0;
  double peak_rss_mb = 0;
  if (!traced) {
    peak_rss_mb = peak_rss_mb_of_one_simulation(w, seeds[0]);
    ++attempted;
    if (peak_rss_mb < 0) ++failed;
  }
  // Output check, which also warms the process up: the replay must match
  // run_workload() on the first seed. Its digest anchors that seed.
  std::vector<std::uint64_t> digest(seeds.size(), 0);
  {
    const Sim first = simulate(w, seeds[0], w.scale, false);
    if (!matches_harness(w, seeds[0], w.scale, first)) ++failed;
    digest[0] = first.digest;
  }

  // Built after the RSS probe's fork, so the child does not carry its table.
  HostReference ref;
  ref.pass();  // warm-up: brings the table into the caches
  double ref_before = ref.pass();
  const auto measure = [&](std::uint64_t s, bool tr) {
    Sim sim = simulate(w, s, w.scale, tr);
    const double ref_after = ref.pass();
    sim.normalize(0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    return sim;
  };

  std::vector<Sim> untraced, traced_sims;
  const auto check = [&](const Sim& s, std::size_t i) {
    ++attempted;
    if (digest[i] == 0) digest[i] = s.digest;
    if (s.digest != digest[i]) {
      std::fprintf(stderr, "perfbench: seed %llu: sim_digest changed\n",
                   static_cast<unsigned long long>(seeds[i]));
      ++failed;
    }
  };
  // Rounds run back to back; another starts only if one as long as the last
  // still ends within --seconds.
  const Clock::time_point start = Clock::now();
  double round_s = 0;
  for (unsigned round = 0;
       round == 0 || seconds_between(start, Clock::now()) + round_s <= seconds;
       ++round) {
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      untraced.push_back(measure(seeds[i], false));
      check(untraced.back(), i);
      if (!traced) continue;
      traced_sims.push_back(measure(seeds[i], true));
      check(traced_sims.back(), i);
      const std::string why = sanity_failure(traced_sims.back());
      if (!why.empty()) {
        std::fprintf(stderr, "perfbench: seed %llu: %s\n",
                     static_cast<unsigned long long>(seeds[i]), why.c_str());
        ++failed;
      }
    }
    round_s = seconds_between(round_start, Clock::now());
  }

  for (std::size_t i = 0; i < seeds.size(); ++i)
    std::printf("sim_digest seed=%llu cycles=%llu 0x%016llx\n",
                static_cast<unsigned long long>(seeds[i]),
                static_cast<unsigned long long>(untraced[i].cycles),
                static_cast<unsigned long long>(digest[i]));
  const std::vector<double>& passes = ref.passes();
  std::printf("simulations untraced=%zu traced=%zu; raw sim_s median %.4f s; "
              "%zu reference passes, raw ms min %.2f median %.2f max %.2f\n",
              untraced.size(), traced_sims.size(),
              median_of(untraced, [](const Sim& s) { return s.raw_run_s; }),
              passes.size(),
              *std::min_element(passes.begin(), passes.end()) * 1e3,
              median(passes) * 1e3,
              *std::max_element(passes.begin(), passes.end()) * 1e3);
  print_result(attempted, failed,
               traced ? per_layer_metrics(traced_sims, untraced)
                      : end_to_end_metrics(untraced, peak_rss_mb));
  return 0;
}

/// Every workload at a tiny scale: output check, untraced and traced
/// replay, digest equality and the traced run's counter invariants.
int selftest() {
  bool ok = true;
  for (const WorkloadDef& w : kWorkloads) {
    const Sim plain = simulate(w, 1, kSelftestScale, false);
    const Sim traced = simulate(w, 1, kSelftestScale, true);
    std::string why = sanity_failure(traced);
    if (!matches_harness(w, 1, kSelftestScale, plain))
      why = "replay differs from run_workload";
    else if (plain.digest != traced.digest)
      why = "tracing changed sim_digest";
    std::printf("selftest %-18s %s%s\n", w.name, why.empty() ? "ok" : "FAIL: ",
                why.c_str());
    ok = ok && why.empty();
  }
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       perfbench --selftest\n"
               "workloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// STAGTM_* knobs feed RunOptions defaults (threads, JIT, tracing, schedule
/// perturbation, ...), so any of them would change what is measured.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "STAGTM_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    std::fprintf(stderr, "perfbench: refusing to run with %.*s set\n",
                 static_cast<int>(eq ? eq - *e : std::strlen(*e)), *e);
    clean = false;
  }
  return clean;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!environment_clean()) return 2;
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return selftest();

  const WorkloadDef* w = nullptr;
  std::uint64_t seed = 1, seconds = 0, trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (v == nullptr) return usage();
    if (a == "--workload") {
      for (const WorkloadDef& d : kWorkloads)
        if (std::strcmp(d.name, v) == 0) w = &d;
      if (w == nullptr) return usage();
    } else if (a == "--seed") {
      if (!parse_u64(v, &seed)) return usage();
    } else if (a == "--seconds") {
      if (!parse_u64(v, &seconds) || seconds == 0) return usage();
    } else if (a == "--trace") {
      if (!parse_u64(v, &trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  if (w == nullptr || seconds == 0) return usage();
  return run_bench(*w, seed, static_cast<double>(seconds), trace == 1);
}
