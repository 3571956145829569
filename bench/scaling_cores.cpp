// Core-scaling curves: sweeps the simulated core count 16..256 and prints
// each configuration's simulated results (cycles, ops, throughput, commits,
// aborts). At 64 cores every workload also runs with the private-line
// classification (DESIGN.md §14) off and on: the twins are checked
// identical in-process, and the directory-probe reduction (the one
// intended delta) goes to stderr so stdout stays byte-identical across
// STAGTM_PRIVATE — CI compares it.
#include "bench_common.hpp"
#include "common/check.hpp"

using namespace st;
using namespace st::bench;

namespace {

/// The simulated fields the privacy twins must reproduce exactly (the
/// full-width contract is CI's byte comparison; this is the in-process
/// subset).
void check_identical(const workloads::RunResult& a,
                     const workloads::RunResult& b) {
  ST_CHECK_MSG(a.cycles == b.cycles && a.total_ops == b.total_ops &&
                   a.totals.commits == b.totals.commits &&
                   a.totals.total_aborts() == b.totals.total_aborts() &&
                   a.totals.interp_instrs == b.totals.interp_instrs,
               "STAGTM_PRIVATE changed a simulated result");
}

}  // namespace

int main() {
  print_header("Core scaling: simulated throughput vs simulated cores");

  const unsigned counts[] = {16, 32, 64, 128, 256};
  // ssca2/kmeans allocate their shared structures in the setup arena, so
  // their lines are born shared and the private-line fast paths see no
  // traffic (dir_probes off == on, a useful null result). genome allocates
  // hashtable nodes inside transactions — each node is private to its
  // allocating core until the commit that links it — so it exercises the
  // classification: expect a visible dir_probes reduction.
  const char* names[] = {"ssca2", "kmeans", "genome"};
  for (const char* name : names) {
    std::printf("\n--- %s (Staggered) ---\n", name);
    std::printf("%6s %14s %12s %12s %10s %10s\n", "cores", "cycles",
                "total_ops", "throughput", "commits", "aborts");
    for (unsigned cores : counts) {
      workloads::RunOptions o =
          base_options(runtime::Scheme::kStaggered, cores);
      const workloads::RunResult shown = workloads::run_workload(name, o);
      std::printf("%6u %14llu %12llu %12.6f %10llu %10llu\n", cores,
                  static_cast<unsigned long long>(shown.cycles),
                  static_cast<unsigned long long>(shown.total_ops),
                  shown.throughput(),
                  static_cast<unsigned long long>(shown.totals.commits),
                  static_cast<unsigned long long>(
                      shown.totals.total_aborts()));
      std::fflush(stdout);
      // Private-line classification twins: one core count is enough — the
      // 128/256 configurations are expensive and the reduction is
      // size-stable.
      if (cores != 64) continue;
      o.private_lines = false;
      const workloads::RunResult off = workloads::run_workload(name, o);
      o.private_lines = true;
      const workloads::RunResult on = workloads::run_workload(name, o);
      check_identical(off, on);
      check_identical(shown, on);
      const auto po = off.totals.dir_probes, pn = on.totals.dir_probes;
      std::fprintf(stderr,
                   "[%s cores=%u dir_probes off=%llu on=%llu "
                   "reduction=%.1f%%]\n",
                   name, cores, static_cast<unsigned long long>(po),
                   static_cast<unsigned long long>(pn),
                   po ? 100.0 *
                            (static_cast<double>(po) - static_cast<double>(pn)) /
                            static_cast<double>(po)
                      : 0.0);
    }
  }
  return 0;
}
