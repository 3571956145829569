// Building your own transactional workload against the public API.
//
// The example implements a tiny "bank": accounts live in a simulated-heap
// array, transfers are atomic blocks written in TxIR through the builder
// EDSL, and a Workload subclass supplies setup, the operation schedule, and
// an invariant check (total balance conservation). The same class then runs
// unchanged under every contention-reduction scheme.
#include <cstdio>

#include "ir/builder.hpp"
#include "workloads/harness.hpp"

namespace {

using namespace st;

class BankWorkload final : public workloads::Workload {
 public:
  const char* name() const override { return "bank"; }
  std::uint64_t ops_per_thread() const override { return 1500; }

  void build_ir(ir::Module& m) override {
    accounts_t_ = m.add_type(ir::make_array("accounts", 8, kAccounts, nullptr));

    // ab_transfer(accounts*, from, to, amount) -> bool
    {
      ir::FunctionBuilder b(m, "ab_transfer",
                            {accounts_t_, nullptr, nullptr, nullptr});
      const ir::Reg acc = b.param(0), from = b.param(1), to = b.param(2),
                    amount = b.param(3);
      const ir::Reg zero = b.const_i(0), one = b.const_i(1);
      const ir::Reg src = b.load_elem(acc, accounts_t_, from);
      const ir::Reg ok = b.var(zero);
      b.if_(b.cmp_sge(b.sub(src, amount), zero), [&] {
        b.store_elem(acc, accounts_t_, from, b.sub(src, amount));
        const ir::Reg dst = b.load_elem(acc, accounts_t_, to);
        b.store_elem(acc, accounts_t_, to, b.add(dst, amount));
        b.assign(ok, one);
      });
      b.ret(ok);
      m.add_atomic_block(b.function());
    }
    // ab_audit(accounts*) -> sum over all accounts (a long read-only txn).
    {
      ir::FunctionBuilder b(m, "ab_audit", {accounts_t_});
      const ir::Reg acc = b.param(0);
      const ir::Reg i = b.var(b.const_i(0));
      const ir::Reg sum = b.var(b.const_i(0));
      b.while_([&] { return b.cmp_slt(i, b.const_i(kAccounts)); },
               [&] {
                 b.assign(sum, b.add(sum, b.load_elem(acc, accounts_t_, i)));
                 b.assign(i, b.add(i, b.const_i(1)));
               });
      b.ret(sum);
      m.add_atomic_block(b.function());
    }
  }

  void setup(runtime::TxSystem& sys) override {
    sim::Heap& heap = sys.heap();
    accounts_ = heap.alloc(heap.setup_arena(), kAccounts * 8, sim::kLineBytes);
    for (unsigned i = 0; i < kAccounts; ++i)
      heap.store(accounts_ + std::size_t{i} * 8, kInitialBalance, 8);
    rngs_.clear();
    for (unsigned t = 0; t < sys.config().cores; ++t)
      rngs_.emplace_back(mix64(sys.config().seed) ^ (0xBA2Cull * (t + 3)));
  }

  Op next_op(runtime::TxSystem&, unsigned thread, std::uint64_t) override {
    auto& rng = rngs_[thread];
    Op op;
    if (rng.chance_pct(95)) {
      // A few accounts are "hot" (payroll!), the rest uniform.
      auto draw = [&] {
        return rng.chance_pct(30) ? rng.next_below(4)
                                  : rng.next_below(kAccounts);
      };
      op.ab_id = 0;
      op.args = {accounts_, draw(), draw(), rng.next_range(1, 50)};
    } else {
      op.ab_id = 1;  // audit
      op.args = {accounts_};
    }
    op.think = 120;
    return op;
  }

  std::string check_invariants(runtime::TxSystem& sys) override {
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kAccounts; ++i)
      total += sys.heap().load(accounts_ + std::size_t{i} * 8, 8);
    if (total != std::uint64_t{kAccounts} * kInitialBalance)
      return "bank balance not conserved: " + std::to_string(total);
    return "";
  }

 private:
  static constexpr unsigned kAccounts = 64;
  static constexpr std::uint64_t kInitialBalance = 1000;

  const ir::StructType* accounts_t_ = nullptr;
  sim::Addr accounts_ = 0;
  std::vector<Xoshiro256ss> rngs_;
};

}  // namespace

int main() {
  std::printf("custom 'bank' workload: hot-account transfers + rare audits\n");
  std::printf("%-14s %12s %10s %8s\n", "scheme", "cycles", "aborts", "Abts/C");
  for (const auto scheme :
       {st::runtime::Scheme::kBaseline, st::runtime::Scheme::kStaggered}) {
    BankWorkload wl;
    st::workloads::RunOptions o;
    o.scheme = scheme;
    o.threads = 16;
    const auto r = st::workloads::run_workload(wl, o);
    std::printf("%-14s %12llu %10llu %8.2f\n", r.scheme.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.totals.total_aborts()),
                r.aborts_per_commit());
  }
  std::printf("balance conservation verified under both schemes.\n");
  return 0;
}
