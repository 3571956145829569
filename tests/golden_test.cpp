// Golden simulated results: pins the sim_fingerprint of small runs that
// cover every locking scheme (eager and lazy conflict detection) and the
// hybrid STM tier, so a change to the executor, the HTM or the lock layer
// that moves any simulated number fails here, without a second build to
// compare against. Update a digest only together with a deliberate, named
// semantic change.
#include <gtest/gtest.h>

#include <cstdio>

#include "test_util.hpp"

namespace st {
namespace {

using runtime::Scheme;

/// FNV-1a over the fingerprint text: a compact, build-independent digest.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

struct GoldenCase {
  const char* test_name;
  const char* workload;
  Scheme scheme;
  bool lazy_htm;
  bool stm;  // STM tier on, with max_retries 2 so blocks reach it
  std::uint64_t digest;
};

constexpr GoldenCase kGoldenCases[] = {
    {"ListHiBaselineEager", "list-hi", Scheme::kBaseline, false, false,
     0xf04aafd5f938f8eeull},
    {"ListHiBaselineLazy", "list-hi", Scheme::kBaseline, true, false,
     0x745e3649f6a909b1ull},
    {"ListHiStaggeredEager", "list-hi", Scheme::kStaggered, false, false,
     0x62207af3774a8c29ull},
    {"ListHiStaggeredLazy", "list-hi", Scheme::kStaggered, true, false,
     0x18143c01c0d202feull},
    {"ListHiStaggeredSWEager", "list-hi", Scheme::kStaggeredSW, false, false,
     0x7eced52b5c382c8dull},
    {"ListHiStaggeredSWLazy", "list-hi", Scheme::kStaggeredSW, true, false,
     0xa8350de2569859b5ull},
    {"ListHiAddrOnlyEager", "list-hi", Scheme::kAddrOnly, false, false,
     0xe0d36a9460803f0full},
    {"ListHiAddrOnlyLazy", "list-hi", Scheme::kAddrOnly, true, false,
     0x04e733e89465c4bfull},
    {"ListHiTxSchedEager", "list-hi", Scheme::kTxSched, false, false,
     0x5c30b4d194ec256cull},
    {"ListHiTxSchedLazy", "list-hi", Scheme::kTxSched, true, false,
     0x6c2e8acb2280dcd6ull},
    {"IntruderHybridBaseline", "intruder", Scheme::kBaseline, false, true,
     0x20c45e2fc01dbaf0ull},
    {"IntruderHybridStaggered", "intruder", Scheme::kStaggered, false, true,
     0x7d14eea03ba3691dull},
};

/// RunOptions reads no environment, so no STAGTM_* variable moves the
/// digest (golden_env_invariance reruns these with every knob set).
workloads::RunOptions golden_options(const GoldenCase& c) {
  workloads::RunOptions opt;
  opt.scheme = c.scheme;
  opt.threads = 16;
  opt.seed = 1;
  opt.ops_scale = 0.05;
  opt.lazy_htm = c.lazy_htm;
  opt.max_retries = c.stm ? 2 : 10;
  opt.stm.enabled = c.stm;
  opt.checked = true;  // commit log + state digest
  return opt;
}

class SimGolden : public ::testing::Test {
 public:
  explicit SimGolden(const GoldenCase& c) : c_(c) {}
  void TestBody() override {
    const auto r = workloads::run_workload(c_.workload, golden_options(c_));
    EXPECT_TRUE(r.invariant_failure.empty()) << r.invariant_failure;
    char got[19];
    std::snprintf(got, sizeof got, "0x%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(testutil::sim_fingerprint(r))));
    char want[19];
    std::snprintf(want, sizeof want, "0x%016llx",
                  static_cast<unsigned long long>(c_.digest));
    EXPECT_STREQ(got, want) << c_.test_name;
  }

 private:
  GoldenCase c_;
};

// One named test per row (SimGolden.<test_name>).
const bool kGoldenRegistered = [] {
  for (const GoldenCase& c : kGoldenCases) {
    ::testing::RegisterTest("SimGolden", c.test_name, nullptr, nullptr,
                            __FILE__, __LINE__,
                            [c]() -> SimGolden* { return new SimGolden(c); });
  }
  return true;
}();

}  // namespace
}  // namespace st
