// stagtm — command-line driver for one-off experiment runs.
//
//   stagtm list
//   stagtm run <workload> [--scheme htm|addronly|staggered|staggered-sw]
//              [--threads N] [--scale F] [--seed S] [--lazy]
//              [--pc-tag-bits B] [--locks N] [--timeout CYCLES]
//              [--max-retries N] [--history N] [--pc-thr N] [--addr-thr N]
//              [--prom-thr N]
//
// Prints the full RunResult breakdown; exits 2 on bad usage (a malformed or
// out-of-range flag value names the flag). The run knobs STAGTM_MAX_RETRIES,
// STAGTM_STM* and STAGTM_TRACE* apply (workloads::options_from_env); flags
// override them.
#include <cstdio>
#include <string>

#include "run_flags.hpp"
#include "workloads/harness.hpp"

namespace {

using namespace st;

int usage() {
  std::fprintf(
      stderr,
      "usage: stagtm list\n"
      "       stagtm run <workload> [--scheme S] [--threads N] [--scale F]\n"
      "                  [--seed S] [--lazy] [--pc-tag-bits B] [--locks N]\n"
      "                  [--timeout C] [--max-retries N] [--history N]\n"
      "                  [--pc-thr N] [--addr-thr N] [--prom-thr N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "list") {
    for (const auto& [name, factory] : workloads::workload_registry()) {
      auto wl = factory();
      std::printf("%-10s  contention=%s  ops/thread=%llu\n", name.c_str(),
                  wl->expected_contention(),
                  static_cast<unsigned long long>(wl->ops_per_thread()));
    }
    return 0;
  }
  if (cmd != "run" || argc < 3) return usage();

  const std::string name = argv[2];
  workloads::RunOptions o = workloads::options_from_env();
  o.ops_scale = 0.25;
  tools::FlagReader f(argc, argv, 3);
  while (f.next()) {
    if (tools::apply_run_flag(f, &o)) continue;
    const std::string& a = f.flag();
    if (a == "--pc-tag-bits") {
      o.pc_tag_bits = f.u32(1, 16);
    } else if (a == "--locks") {
      o.num_advisory_locks = f.u32(1, 65536);
    } else if (a == "--timeout") {
      o.lock_timeout = f.u64(0, 1'000'000'000);
    } else if (a == "--history") {
      o.history_len = f.u32(1, 1024);
    } else if (a == "--pc-thr") {
      o.policy.pc_thr = f.u32(0, 1'000'000);
    } else if (a == "--addr-thr") {
      o.policy.addr_thr = f.u32(0, 1'000'000);
    } else if (a == "--prom-thr") {
      o.policy.prom_thr = f.u32(0, 1'000'000);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return usage();
    }
  }

  const auto wl = workloads::make_workload(name);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try: stagtm list)\n",
                 name.c_str());
    return 1;
  }
  workloads::check_scale(*wl, o.ops_scale, "--scale");

  const auto r = workloads::run_workload(*wl, o);
  const auto& t = r.totals;
  std::printf("workload   %s\nscheme     %s%s\nthreads    %u\n", name.c_str(),
              r.scheme.c_str(), o.lazy_htm ? " (lazy HTM)" : "", r.threads);
  std::printf("cycles     %llu\nops        %llu\nthroughput %.6f ops/cycle\n",
              static_cast<unsigned long long>(r.cycles),
              static_cast<unsigned long long>(r.total_ops), r.throughput());
  std::printf("commits    %llu  (irrevocable %llu = %.1f%%)\n",
              static_cast<unsigned long long>(t.commits),
              static_cast<unsigned long long>(t.irrevocable_entries),
              r.pct_irrevocable());
  // Printed only when the STM tier is on, so STM-off stdout stays
  // byte-identical to builds without src/stm (CI-enforced).
  if (o.stm.enabled)
    std::printf(
        "stm        commits %llu, aborts (validation %llu, lock %llu, "
        "glock %llu), orec-waits %llu\n",
        static_cast<unsigned long long>(t.stm_commits),
        static_cast<unsigned long long>(t.stm_aborts_validation),
        static_cast<unsigned long long>(t.stm_aborts_lock),
        static_cast<unsigned long long>(t.stm_aborts_glock),
        static_cast<unsigned long long>(t.stm_orec_waits));
  std::printf(
      "aborts     %llu  (conflict %llu, capacity %llu, glock %llu, "
      "explicit %llu)  Abts/C %.2f\n",
      static_cast<unsigned long long>(t.total_aborts()),
      static_cast<unsigned long long>(t.aborts_conflict),
      static_cast<unsigned long long>(t.aborts_capacity),
      static_cast<unsigned long long>(t.aborts_glock),
      static_cast<unsigned long long>(t.aborts_explicit),
      r.aborts_per_commit());
  std::printf(
      "cycles     useful %llu, wasted %llu (W/U %.2f), lock-wait %llu, "
      "backoff %llu, serial %llu, non-tx %llu  (%%TM %.0f)\n",
      static_cast<unsigned long long>(t.cycles_useful_tx),
      static_cast<unsigned long long>(t.cycles_wasted_tx),
      r.wasted_over_useful(),
      static_cast<unsigned long long>(t.cycles_lock_wait),
      static_cast<unsigned long long>(t.cycles_backoff),
      static_cast<unsigned long long>(t.cycles_irrevocable),
      static_cast<unsigned long long>(t.cycles_nontx), r.pct_tm());
  std::printf(
      "alps       executed %llu, acquired %llu, timeouts %llu, anchor "
      "accuracy %.1f%%\n",
      static_cast<unsigned long long>(t.alp_executed),
      static_cast<unsigned long long>(t.alp_acquires),
      static_cast<unsigned long long>(t.alp_timeouts),
      100.0 * r.anchor_accuracy());
  std::printf("locality   conflict-addr %.2f, conflict-pc %.2f\n",
              r.conflict_addr_locality, r.conflict_pc_locality);
  std::printf("energy     %.0f (arbitrary units; spin 0.3x, backoff 0.2x)\n",
              r.energy_estimate());
  // Host-side privacy report goes to stderr: stdout carries only
  // simulated results, which CI byte-compares.
  std::fprintf(stderr,
               "[privacy: priv_escapes=%llu priv_hits=%llu priv_misses=%llu "
               "dir_probes=%llu]\n",
               static_cast<unsigned long long>(t.priv_escapes),
               static_cast<unsigned long long>(t.priv_hits),
               static_cast<unsigned long long>(t.priv_misses),
               static_cast<unsigned long long>(t.dir_probes));
  return 0;
}
