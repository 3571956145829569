#include "runtime/tx_system.hpp"

#include "common/check.hpp"

namespace st::runtime {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return "HTM";
    case Scheme::kAddrOnly: return "AddrOnly";
    case Scheme::kStaggered: return "Staggered";
    case Scheme::kStaggeredSW: return "Staggered+SW";
    case Scheme::kTxSched: return "TxSched";
  }
  return "?";
}

stagger::InstrumentMode instrument_mode_for(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return stagger::InstrumentMode::kNone;
    case Scheme::kAddrOnly: return stagger::InstrumentMode::kEntryOnly;
    case Scheme::kStaggered:
    case Scheme::kStaggeredSW: return stagger::InstrumentMode::kAnchors;
    case Scheme::kTxSched: return stagger::InstrumentMode::kNone;
  }
  return stagger::InstrumentMode::kNone;
}

namespace {
RuntimeConfig with_mem_cores(RuntimeConfig cfg) {
  cfg.mem.cores = cfg.cores;
  return cfg;
}
}  // namespace

TxSystem::TxSystem(const RuntimeConfig& cfg, stagger::CompiledProgram& prog)
    : cfg_(with_mem_cores(cfg)),
      prog_(prog),
      obs_(cfg.trace.enabled()
               ? std::make_unique<obs::Observer>(cfg.cores,
                                                 cfg.trace.cap_per_core)
               : nullptr),
      commit_log_(cfg.record_commits ? std::make_unique<CommitLog>()
                                     : nullptr),
      stats_(cfg.cores),
      machine_(cfg.cores),
      heap_(cfg.cores + 1, cfg.arena_bytes),
      mem_(cfg_.mem, stats_, machine_, heap_.privacy()),
      htm_(machine_, heap_, mem_, stats_),
      locks_(htm_, cfg.num_advisory_locks),
      cpc_(htm_),
      policy_(cfg.policy) {
  ST_CHECK_MSG(prog.module != nullptr && prog.module->finalized(),
               "TxSystem needs a compiled, finalized program");
  machine_.set_step_fusion(cfg_.macrostep);
  machine_.set_observer(obs_.get());
  mem_.set_observer(obs_.get());
  htm_.set_observer(obs_.get());
  locks_.set_observer(obs_.get());
  // Allocation-site tracking feeds abort attribution; pure observer (the
  // site map is never read by anything simulated), so it is gated with the
  // observer rather than always on.
  if (obs_ != nullptr) heap_.set_site_tracking(true);
  glock_ = heap_.alloc_line_aligned(heap_.setup_arena(), 8);
  if (cfg_.stm.enabled) {
    // STM metadata lives after the glock in the setup arena; with the tier
    // off neither allocation happens, so the heap layout — and therefore
    // every simulated address and result — is byte-identical to a run
    // without the tier.
    const sim::Addr clock_addr =
        heap_.alloc_line_aligned(heap_.setup_arena(), 8);
    const sim::Addr orec_base = heap_.alloc_line_aligned(
        heap_.setup_arena(), std::uint64_t{cfg_.stm.orecs} * 8);
    stm_ = std::make_unique<stm::StmSystem>(htm_, cfg_.stm, cfg_.cores,
                                            clock_addr, orec_base);
  }

  const unsigned num_abs =
      static_cast<unsigned>(prog.module->atomic_blocks().size());
  ST_CHECK(prog.tables.size() == num_abs);
  rngs_.reserve(cfg_.cores);
  abctx_.reserve(static_cast<std::size_t>(cfg_.cores) * num_abs);
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    rngs_.emplace_back(mix64(cfg_.seed) ^ (0x1234'5678ull * (c + 1)));
    for (unsigned ab = 0; ab < num_abs; ++ab) {
      abctx_.push_back(std::make_unique<stagger::ABContext>(
          prog.tables[ab].get(), cfg_.history_len));
      abctx_.back()->core = c;
      abctx_.back()->ab_id = ab;
    }
  }
}

stagger::ABContext& TxSystem::abctx(sim::CoreId c, unsigned ab_id) {
  const unsigned num_abs =
      static_cast<unsigned>(prog_.module->atomic_blocks().size());
  ST_CHECK(c < cfg_.cores && ab_id < num_abs);
  return *abctx_[static_cast<std::size_t>(c) * num_abs + ab_id];
}

sim::Cycle TxSystem::run(sim::Cycle max_cycles) {
  return machine_.run(max_cycles);
}

}  // namespace st::runtime
