#include "model/litmus_runner.hpp"

#include <exception>
#include <memory>
#include <stdexcept>

#include "core/machine.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"
#include "workload/access.hpp"

namespace bcsim::model {

namespace {

/// Address layout and sync objects for one run.
struct Layout {
  std::vector<Addr> loc_addr;
  std::vector<std::unique_ptr<sync::Mutex>> locks;
  std::unique_ptr<sync::Barrier> barrier;        ///< the test's kBarrier
  std::unique_ptr<sync::Barrier> start_barrier;  ///< warmup/main rendezvous

  Layout(const LitmusTest& t, core::Machine& m) {
    auto alloc = m.make_allocator();
    const auto& cfg = m.config();
    loc_addr.reserve(t.n_locations);
    for (std::uint32_t l = 0; l < t.n_locations; ++l) {
      loc_addr.push_back(alloc.alloc_blocks(1));  // one block each: own home
    }
    locks.reserve(t.n_locks);
    for (std::uint32_t l = 0; l < t.n_locks; ++l) {
      locks.push_back(sync::make_mutex(cfg.lock_impl, alloc, cfg.n_nodes));
    }
    const auto participants = static_cast<std::uint32_t>(t.threads.size());
    bool any_barrier = false;
    for (const auto& th : t.threads) {
      for (const Op& op : th) {
        if (op.kind == OpKind::kBarrier) any_barrier = true;
      }
    }
    if (any_barrier) {
      barrier = sync::make_barrier(cfg.barrier_impl, alloc, participants);
    }
    start_barrier = sync::make_barrier(cfg.barrier_impl, alloc, participants);
  }
};

/// Locations thread `ti` kLoads, in order of first appearance — its
/// warmup subscription list.
std::vector<std::uint32_t> subscribe_list(const LitmusTest& t, std::size_t ti) {
  std::vector<std::uint32_t> locs;
  for (const Op& op : t.threads[ti]) {
    if (op.kind != OpKind::kLoad && op.kind != OpKind::kAwait) continue;
    bool seen = false;
    for (const std::uint32_t l : locs) {
      if (l == op.loc) seen = true;
    }
    if (!seen) locs.push_back(op.loc);
  }
  return locs;
}

sim::Task interpret_thread(core::Processor& p, const LitmusTest& t, std::uint32_t ti,
                           Layout& lay, std::vector<std::vector<LitmusLoad>>& obs) {
  // Warmup: deterministic subscription order (thread index staggers far
  // beyond any network latency), then rendezvous before the first store.
  co_await p.compute(1 + static_cast<Tick>(ti) * 256);
  const std::vector<std::uint32_t> subs = subscribe_list(t, ti);
  for (const std::uint32_t loc : subs) {
    const Word warm = co_await workload::shared_read(p, lay.loc_addr[loc]);
    (void)warm;  // initial value; the model never sees warmup reads
  }
  co_await lay.start_barrier->wait(p);

  // Model-invisible timing jitter, derived from the schedule seed: the
  // seed sweep then explores coarse race alignments (who reaches memory
  // first), not just same-tick tie-breaks — the lever behind statistical
  // completeness of the outcome coverage.
  std::uint64_t h = p.config().schedule_seed + 0x9e3779b97f4a7c15ULL * (ti + 1);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  co_await p.compute(1 + static_cast<Tick>(h % 241));

  const auto& code = t.threads[ti];
  for (std::uint32_t i = 0; i < code.size(); ++i) {
    const Op& op = code[i];
    switch (op.kind) {
      case OpKind::kStore:
        co_await workload::shared_write(p, lay.loc_addr[op.loc], op.value);
        break;
      case OpKind::kLoad: {
        const Word v = co_await workload::shared_read(p, lay.loc_addr[op.loc]);
        if (op.observed) obs[ti].push_back({ti, i, v, p.simulator().now()});
        break;
      }
      case OpKind::kLoadOnce: {
        const Word v = co_await workload::shared_read_once(p, lay.loc_addr[op.loc]);
        if (op.observed) obs[ti].push_back({ti, i, v, p.simulator().now()});
        break;
      }
      case OpKind::kFence:
        co_await p.flush_buffer();
        break;
      case OpKind::kLock:
        co_await lay.locks[op.loc]->acquire(p);
        break;
      case OpKind::kUnlock:
        co_await lay.locks[op.loc]->release(p);
        break;
      case OpKind::kBarrier:
        co_await lay.barrier->wait(p);
        break;
      case OpKind::kUnsubscribe:
        if (p.config().data_protocol == core::DataProtocol::kReadUpdate) {
          const Word gone = co_await p.reset_update(lay.loc_addr[op.loc]);
          (void)gone;
        }
        break;
      case OpKind::kCompute:
        co_await p.compute(op.loc);
        break;
      case OpKind::kAwait: {
        const Addr a = lay.loc_addr[op.loc];
        for (;;) {
          const Word v = co_await workload::shared_read(p, a);
          if (v == op.value) break;
          co_await p.wait_word_change(a, v);
        }
        break;
      }
    }
  }
}

}  // namespace

LitmusRunResult run_litmus(const LitmusTest& t, const core::MachineConfig& cfg,
                           Tick budget, std::ostream* trace_tail) {
  const std::string err = validate(t);
  if (!err.empty()) throw std::invalid_argument(err);
  if (cfg.n_nodes < t.threads.size()) {
    throw std::invalid_argument("run_litmus: litmus '" + t.name + "' needs " +
                                std::to_string(t.threads.size()) +
                                " nodes, config has " + std::to_string(cfg.n_nodes));
  }

  LitmusRunResult r;
  std::vector<std::vector<LitmusLoad>> obs(t.threads.size());

  core::Machine m(cfg);
  Layout lay(t, m);
  for (std::uint32_t ti = 0; ti < t.threads.size(); ++ti) {
    m.spawn(interpret_thread(m.processor(ti), t, ti, lay, obs));
  }
  try {
    r.completion = m.run(budget);
    r.completed = m.all_done() && m.quiescent();
    if (!r.completed) r.error = "threads stuck or protocol not quiescent";
  } catch (const std::exception& ex) {
    r.completion = m.simulator().now();
    r.error = ex.what();
    if (trace_tail != nullptr && cfg.trace) m.dump_trace(*trace_tail);
    return r;
  }
  if (trace_tail != nullptr && cfg.trace) m.dump_trace(*trace_tail);

  for (const auto& per_thread : obs) {
    for (const LitmusLoad& l : per_thread) {
      r.outcome.loads.push_back(l.value);
      r.loads.push_back(l);
    }
  }
  r.outcome.finals.reserve(t.n_locations);
  for (std::uint32_t l = 0; l < t.n_locations; ++l) {
    r.outcome.finals.push_back(m.peek_coherent(lay.loc_addr[l]));
  }
  return r;
}

}  // namespace bcsim::model
