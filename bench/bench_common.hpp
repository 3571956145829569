// Shared helpers for the table/figure reproduction binaries.
//
// Every binary prints (a) the simulated-machine configuration (paper
// Table 2), (b) its own measured rows, and (c) the paper's reported values
// for side-by-side comparison. All binaries submit their full sweep up
// front to an ExperimentRunner and print rows in submission order as the
// results complete, so a multi-core host runs the independent simulations
// concurrently while the printed output stays bit-identical to a serial
// run. Environment knobs (all strictly validated — a typo aborts with a
// message instead of silently running the wrong experiment):
//   STAGTM_SCALE   — ops multiplier (default 0.25; 1.0 = full length)
//   STAGTM_CORES   — simulated worker count (default 16, as in the paper)
//   STAGTM_SEED    — RNG seed (default 1)
//   STAGTM_JOBS    — host worker threads, one per simulation (default:
//     hardware concurrency)
//   STAGTM_JSON    — if set, write machine-readable results to this path
//   STAGTM_MAX_RETRIES / STAGTM_STM / STAGTM_STM_RETRIES / STAGTM_STM_ORECS
//     — the HTM retry budget and the STM fallback tier
//     (workloads::options_from_env)
//   STAGTM_TRACE / STAGTM_TRACE_CAP — the observer (obs/observer.hpp):
//     event trace plus per-abort blame records and advisory-lock episodes,
//     written per job for tools/stagtm-trace; never changes stdout or
//     simulated results
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "obs/metrics.hpp"
#include "obs/export.hpp"
#include "workloads/runner.hpp"

namespace st::bench {

// The strict env parsers used to live here; they moved to common/env.hpp so
// the library (runner, trace config) applies the same unset->default /
// valid->apply / else exit(2) contract. Kept as aliases for bench code.
using st::env_fail;
using st::env_positive_double;
using st::env_u64;

inline double env_scale() {
  return env_positive_double("STAGTM_SCALE", 0.25);
}

inline unsigned env_cores() {
  // The printed header labels this "threads=" (simulated worker threads)
  // so frozen stdout stays byte-identical.
  return static_cast<unsigned>(env_u64("STAGTM_CORES", 16, 1, 256,
                                       "an integer in [1,256]"));
}

inline std::uint64_t env_seed() {
  return env_u64("STAGTM_SEED", 1, 0, ~std::uint64_t{0},
                 "a non-negative integer");
}

inline unsigned env_jobs() {
  // Validated (and defaulted) by the runner so library users get the same
  // strictness as the bench binaries.
  return workloads::ExperimentRunner::default_jobs();
}

inline workloads::RunOptions base_options(runtime::Scheme scheme,
                                          unsigned threads) {
  workloads::RunOptions o = workloads::options_from_env();
  o.scheme = scheme;
  o.threads = threads;
  o.seed = env_seed();
  o.ops_scale = env_scale();
  return o;
}

inline void print_machine_config() {
  std::printf(
      "simulated machine (paper Table 2): 16-core 2.5GHz | L1 64K/8way/"
      "2cyc + 2 tx bits + 12-bit PC tag | L2 1M/10cyc | L3 8M/30cyc | "
      "mem 125cyc | MOESI | eager requester-wins HTM\n");
}

inline void print_header(const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  print_machine_config();
  std::printf("threads=%u scale=%.2f seed=%llu\n", env_cores(),
              env_scale(), static_cast<unsigned long long>(env_seed()));
  std::printf("==============================================================\n");
  // stderr, not stdout: the job count changes wall time but never
  // results, and stdout must be byte-identical across STAGTM_JOBS settings.
  std::fprintf(stderr, "[%u host jobs]\n", env_jobs());
}

/// speedup of `r` relative to a single-thread run `base1` (throughput
/// ratio; matches the paper's "speedup over sequential run").
inline double speedup(const workloads::RunResult& base1,
                      const workloads::RunResult& r) {
  return base1.throughput() == 0 ? 0.0
                                 : r.throughput() / base1.throughput();
}

/// One bench binary's sweep: jobs are submitted up front, results are
/// consumed in submission order, and (when STAGTM_JSON is set) every
/// completed run plus wall-clock/speedup-vs-serial metadata is written as
/// JSON when the Sweep goes out of scope.
class Sweep {
 public:
  explicit Sweep(const char* bench_name)
      : name_(bench_name),
        start_(std::chrono::steady_clock::now()),
        runner_(env_jobs()) {}

  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  ~Sweep() { write_json(); }

  std::size_t add(const std::string& workload, workloads::RunOptions o) {
    // The sweeps take their scale from STAGTM_SCALE (base_options).
    if (const auto wl = workloads::make_workload(workload))
      workloads::check_scale(*wl, o.ops_scale, "STAGTM_SCALE");
    // Concurrent jobs must not clobber one shared STAGTM_TRACE file, so each
    // job's path carries its id. Ids are submission order, making output
    // names stable regardless of which worker picks the job up.
    if (o.trace.enabled())
      o.trace.path =
          obs::uniquify_trace_path(o.trace.path, runner_.submitted());
    return runner_.submit(workload, o);
  }

  /// Blocks until job `id` is done (results for earlier submissions may
  /// still be in flight — consume in order for as-they-complete printing).
  const workloads::RunResult& get(std::size_t id) { return runner_.wait(id); }

  unsigned jobs() const { return runner_.jobs(); }

 private:
  static void json_escape(std::FILE* f, const std::string& s) {
    for (char c : s)
      if (c == '"' || c == '\\')
        std::fprintf(f, "\\%c", c);
      else
        std::fputc(c, f);
  }

  void write_json() {
    const char* path = std::getenv("STAGTM_JSON");
    if (path == nullptr || *path == '\0') return;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "STAGTM_JSON: cannot open \"%s\" for writing\n",
                   path);
      return;
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    double serial_ms = 0;
    std::fprintf(f, "{\n  \"bench\": \"");
    json_escape(f, name_);
    const workloads::RunOptions env = workloads::options_from_env();
    std::fprintf(f,
                 "\",\n  \"jobs\": %u,\n  \"threads\": %u,\n"
                 "  \"scale\": %.17g,\n  \"seed\": %llu,\n"
                 "  \"max_retries\": %u,\n"
                 "  \"stm\": {\"enabled\": %s, \"retries\": %u, "
                 "\"orecs\": %u},\n  \"runs\": [",
                 jobs(), env_cores(), env_scale(),
                 static_cast<unsigned long long>(env_seed()),
                 env.max_retries, env.stm.enabled ? "true" : "false",
                 env.stm.retries, env.stm.orecs);
    const std::size_t n = runner_.submitted();
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      const workloads::RunResult* r = nullptr;
      try {
        r = &runner_.wait(i);
      } catch (...) {
        continue;  // failed jobs carry no result
      }
      serial_ms += r->wall_ms;
      std::fprintf(f, "%s\n    {\"workload\": \"", first ? "" : ",");
      first = false;
      json_escape(f, r->workload);
      std::fprintf(f, "\", \"scheme\": \"");
      json_escape(f, r->scheme);
      std::fprintf(
          f,
          "\", \"threads\": %u, \"cycles\": %llu, \"total_ops\": %llu, "
          "\"throughput\": %.17g, \"commits\": %llu, \"aborts\": %llu, "
          "\"aborts_per_commit\": %.17g, \"wall_ms\": %.3f, "
          "\"sched_events\": %llu, \"sched_steps\": %llu, \"instrs\": %llu, "
          "\"minstr_per_s\": %.3f, "
          "\"abort_trace_dropped\": %llu",
          r->threads, static_cast<unsigned long long>(r->cycles),
          static_cast<unsigned long long>(r->total_ops), r->throughput(),
          static_cast<unsigned long long>(r->totals.commits),
          static_cast<unsigned long long>(r->totals.total_aborts()),
          r->aborts_per_commit(), r->wall_ms,
          static_cast<unsigned long long>(r->sched_events),
          static_cast<unsigned long long>(r->sched_steps),
          static_cast<unsigned long long>(r->totals.interp_instrs),
          r->host_minstr_per_s(),
          static_cast<unsigned long long>(r->abort_trace_dropped));
      // Provenance summary + the per-job observer file path (only when
      // STAGTM_TRACE was set: keys absent in a plain run so the off-vs-on
      // differential strips them like the host-side fields).
      if (!r->trace_path.empty()) {
        std::fprintf(f, ",\n     \"trace_path\": \"");
        json_escape(f, r->trace_path);
        std::fprintf(f, "\",\n     \"prov\": ");
        obs::write_prov_summary_json(f, r->prov);
      }
      std::fprintf(f, ",\n     \"totals\": {");
      // Full metric set, registry-driven: every counter + log2 histogram,
      // aggregated and per core (obs/metrics.hpp).
      obs::write_core_stats_json(f, r->totals);
      std::fprintf(f, "},\n     \"per_core\": [");
      for (std::size_t c = 0; c < r->per_core.size(); ++c) {
        std::fprintf(f, "%s{", c == 0 ? "" : ", ");
        obs::write_core_stats_json(f, r->per_core[c]);
        std::fprintf(f, "}");
      }
      std::fprintf(f, "]}");
    }
    // serial_wall_ms sums each run's host time: what the sweep would have
    // cost on one worker. The ratio tracks the runner's speedup per PR.
    std::fprintf(f,
                 "\n  ],\n  \"wall_ms\": %.3f,\n  \"serial_wall_ms\": %.3f,\n"
                 "  \"speedup_vs_serial\": %.3f\n}\n",
                 wall_ms, serial_ms, wall_ms > 0 ? serial_ms / wall_ms : 0.0);
    std::fclose(f);
    std::printf("[json results written to %s]\n", path);
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  workloads::ExperimentRunner runner_;
};

}  // namespace st::bench
