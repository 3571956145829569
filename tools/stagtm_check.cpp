// stagtm-check — schedule-exploration correctness checker.
//
//   stagtm-check <workload> [--scheme htm|addronly|staggered|staggered-sw]
//                [--threads N] [--scale F] [--seed S] [--lazy]
//                [--max-retries N] [--mode jitter|pct] [--seeds N]
//                [--seed0 S] [--jitter C] [--period N] [--depth D]
//                [--skew C] [--window LO:HI] [--reduce] [--trace-out PATH]
//                [--break-subscription]
//
// For each of N perturbation seeds: run the workload under the perturbed
// schedule in checked mode, validate the workload's invariants, then replay
// the commit log serially through the serializability oracle. On the first
// failing seed, optionally shrink the perturbation to a minimal reproducer
// (--reduce), print the stagtm-check command that replays it alone, and
// re-run it with event tracing into --trace-out for Perfetto inspection.
// The run knobs STAGTM_MAX_RETRIES and STAGTM_STM* apply
// (workloads::options_from_env); flags override them.
//
// Exit status: 0 = all seeds clean, 1 = failure found, 2 = bad usage (a
// malformed or out-of-range flag value names the flag).
// Output is deterministic (no timestamps, no wall-clock).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/check.hpp"
#include "check/reducer.hpp"
#include "run_flags.hpp"

namespace {

using namespace st;

int usage() {
  std::fprintf(
      stderr,
      "usage: stagtm-check <workload> [--scheme S] [--threads N] [--scale F]\n"
      "                    [--seed S] [--lazy] [--max-retries N]\n"
      "                    [--mode jitter|pct] [--seeds N] [--seed0 S]\n"
      "                    [--jitter C] [--period N] [--depth D] [--skew C]\n"
      "                    [--window LO:HI] [--reduce] [--trace-out PATH]\n"
      "                    [--break-subscription]\n");
  return 2;
}

bool parse_window(const char* s, sim::Cycle* lo, sim::Cycle* hi) {
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr || colon == s || colon[1] == '\0') return false;
  char* end = nullptr;
  *lo = std::strtoull(s, &end, 10);
  if (end != colon || *s == '-') return false;
  *hi = std::strtoull(colon + 1, &end, 10);
  return *end == '\0' && colon[1] != '-' && *lo < *hi;
}

/// Shortest "%g" form that reads back as `v`, so a printed --scale
/// reproduces the run exactly.
std::string round_trip(double v) {
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// The stagtm-check invocation that replays `probe` alone under `base`,
/// STM knobs included (they have no flags).
void print_reproduce(const char* argv0, const std::string& name,
                     const workloads::RunOptions& base,
                     const check::SchedConfig& probe) {
  std::printf("reproduce:");
  if (base.stm.enabled)
    std::printf(" STAGTM_STM=on STAGTM_STM_RETRIES=%u STAGTM_STM_ORECS=%u",
                base.stm.retries, base.stm.orecs);
  std::printf(" %s %s --scheme %s --threads %u --scale %s --seed %llu"
              " --max-retries %u%s%s",
              argv0, name.c_str(), tools::scheme_flag(base.scheme),
              base.threads, round_trip(base.ops_scale).c_str(),
              static_cast<unsigned long long>(base.seed), base.max_retries,
              base.lazy_htm ? " --lazy" : "",
              base.unsafe_skip_subscription ? " --break-subscription" : "");
  std::printf(" --mode %s --seed0 %llu --seeds 1",
              check::sched_mode_name(probe.mode),
              static_cast<unsigned long long>(probe.seed));
  if (probe.mode == check::SchedMode::kJitter) {
    std::printf(" --jitter %llu --period %llu",
                static_cast<unsigned long long>(probe.jitter),
                static_cast<unsigned long long>(probe.period));
    if (probe.window_hi != ~sim::Cycle{0})
      std::printf(" --window %llu:%llu",
                  static_cast<unsigned long long>(probe.window_lo),
                  static_cast<unsigned long long>(probe.window_hi));
  } else {
    std::printf(" --depth %u --skew %llu", probe.depth,
                static_cast<unsigned long long>(probe.skew));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];

  // The environment's run knobs apply and flags override them, but probes
  // stay observer-free: --trace-out traces the reproducer instead.
  workloads::RunOptions base = workloads::options_from_env();
  base.ops_scale = 0.25;
  base.trace.path.clear();
  check::SchedConfig sched;
  sched.mode = check::SchedMode::kJitter;
  unsigned seeds = 25;
  std::uint64_t seed0 = 1;
  bool do_reduce = false;
  std::string trace_out;

  tools::FlagReader f(argc, argv, 2);
  while (f.next()) {
    if (tools::apply_run_flag(f, &base)) continue;
    const std::string& a = f.flag();
    if (a == "--reduce") {
      do_reduce = true;
    } else if (a == "--break-subscription") {
      base.unsafe_skip_subscription = true;
    } else if (a == "--mode") {
      const std::string v = f.value();
      if (v == "jitter") sched.mode = check::SchedMode::kJitter;
      else if (v == "pct") sched.mode = check::SchedMode::kPct;
      else env_fail("--mode", v.c_str(), "jitter or pct");
    } else if (a == "--seeds") {
      seeds = f.u32(1, 1'000'000);
    } else if (a == "--seed0") {
      seed0 = f.u64(0, ~std::uint64_t{0});
    } else if (a == "--jitter") {
      sched.jitter = f.u64(1, 1'000'000'000);
    } else if (a == "--period") {
      sched.period = f.u64(1, 1'000'000'000);
    } else if (a == "--depth") {
      sched.depth = f.u32(0, 1024);
    } else if (a == "--skew") {
      sched.skew = f.u64(1, 1'000'000'000);
    } else if (a == "--window") {
      const char* v = f.value();
      if (!parse_window(v, &sched.window_lo, &sched.window_hi))
        env_fail("--window", v, "LO:HI with LO < HI (cycles)");
    } else if (a == "--trace-out") {
      trace_out = f.value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return usage();
    }
  }
  const auto wl = workloads::make_workload(name);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try: stagtm list)\n",
                 name.c_str());
    return 2;
  }
  workloads::check_scale(*wl, base.ops_scale, "--scale");

  std::printf("checking %s: %u seed(s), base %s\n", name.c_str(), seeds,
              sched.describe().c_str());
  for (unsigned i = 0; i < seeds; ++i) {
    check::SchedConfig probe = sched;
    probe.seed = seed0 + i;
    const check::Verdict v = check::check_once(name, base, probe);
    if (v.ok) {
      std::printf("seed %llu: ok (%llu commits, %llu cycles)\n",
                  static_cast<unsigned long long>(probe.seed),
                  static_cast<unsigned long long>(v.commits),
                  static_cast<unsigned long long>(v.cycles));
      continue;
    }
    std::printf("seed %llu: FAIL [%s] %s\n",
                static_cast<unsigned long long>(probe.seed), v.stage.c_str(),
                v.failure.c_str());
    check::SchedConfig repro = probe;
    if (do_reduce) {
      const auto fails = [&](const check::SchedConfig& c) {
        return !check::check_once(name, base, c).ok;
      };
      const check::ReduceResult red =
          check::reduce(probe, v.cycles, fails);
      if (red.reproduced) repro = red.minimal;
      std::printf("reduced (%u probes): %s\n", red.probes,
                  repro.describe().c_str());
    }
    print_reproduce(argv[0], name, base, repro);
    if (!trace_out.empty()) {
      workloads::RunOptions traced = base;
      traced.checked = true;
      traced.sched = repro;
      traced.trace.path = trace_out;
      (void)workloads::run_workload(name, traced);
      std::printf("trace: %s\n", trace_out.c_str());
    }
    return 1;
  }
  std::printf("all %u seed(s) clean\n", seeds);
  return 0;
}
