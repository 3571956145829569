// Core-scaling curves: sweeps the simulated core count 16..256 and prints
// each configuration's simulated results (cycles, ops, throughput, commits,
// aborts).
#include "bench_common.hpp"

using namespace st;
using namespace st::bench;

int main() {
  print_header("Core scaling: simulated throughput vs simulated cores");

  const unsigned counts[] = {16, 32, 64, 128, 256};
  const char* names[] = {"ssca2", "kmeans", "genome"};
  for (const char* name : names) {
    std::printf("\n--- %s (Staggered) ---\n", name);
    std::printf("%6s %14s %12s %12s %10s %10s\n", "cores", "cycles",
                "total_ops", "throughput", "commits", "aborts");
    for (unsigned cores : counts) {
      const workloads::RunResult r = workloads::run_workload(
          name, base_options(runtime::Scheme::kStaggered, cores));
      std::printf("%6u %14llu %12llu %12.6f %10llu %10llu\n", cores,
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.total_ops),
                  r.throughput(),
                  static_cast<unsigned long long>(r.totals.commits),
                  static_cast<unsigned long long>(r.totals.total_aborts()));
      std::fflush(stdout);
    }
  }
  return 0;
}
