#include "ref/machine_runner.hpp"

#include <exception>
#include <memory>
#include <stdexcept>

#include "core/machine.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"
#include "core/sync/semaphore.hpp"
#include "workload/access.hpp"

namespace bcsim::ref {

namespace {

/// Address layout for one run: ids -> simulated addresses. Counters are
/// colocated with their lock when the lock implementation delivers the
/// lock block with the grant (the paper's critical-section locality
/// argument); otherwise each counter gets its own block. Region and
/// handoff words pack per node, so a node's writes share blocks with its
/// own other slots but never with another node's.
struct Layout {
  std::vector<std::unique_ptr<sync::Mutex>> locks;
  std::vector<std::unique_ptr<sync::CountingSemaphore>> sems;
  std::unique_ptr<sync::Barrier> barrier;
  std::vector<Addr> var_addr;
  std::vector<std::uint8_t> var_rides_lock;

  Layout(const DrfProgram& prog, core::Machine& m) {
    auto alloc = m.make_allocator();
    const auto& cfg = m.config();

    var_addr.assign(prog.n_vars, 0);
    var_rides_lock.assign(prog.n_vars, 0);

    locks.reserve(prog.n_locks);
    for (std::uint32_t l = 0; l < prog.n_locks; ++l) {
      locks.push_back(sync::make_mutex(cfg.lock_impl, alloc, cfg.n_nodes));
      // Words 1..block_words-1 of a CBL lock block ride the grant.
      std::uint32_t riding = 0;
      for (std::uint32_t c = 0; c < prog.n_counters; ++c) {
        if (prog.counter_lock[c] != l) continue;
        if (locks[l]->data_rides_lock() && riding + 1 < cfg.block_words) {
          var_addr[c] = locks[l]->lock_addr() + 1 + riding;
          var_rides_lock[c] = 1;
          ++riding;
        } else {
          var_addr[c] = alloc.alloc_blocks(1);
        }
      }
    }

    const std::uint32_t region_per_node = prog.gen.phases * prog.gen.region_slots;
    const std::uint32_t handoff_per_node = prog.gen.phases * prog.gen.handoff_slots;
    const std::uint32_t region_base = prog.n_counters;
    const std::uint32_t handoff_base = region_base + prog.gen.n_nodes * region_per_node;
    for (std::uint32_t n = 0; n < prog.gen.n_nodes; ++n) {
      const Addr rbase = alloc.alloc_words(region_per_node);
      for (std::uint32_t k = 0; k < region_per_node; ++k) {
        var_addr[region_base + n * region_per_node + k] = rbase + k;
      }
      const Addr hbase = alloc.alloc_words(handoff_per_node);
      for (std::uint32_t k = 0; k < handoff_per_node; ++k) {
        var_addr[handoff_base + n * handoff_per_node + k] = hbase + k;
      }
    }

    sems.reserve(prog.n_sems);
    for (std::uint32_t s = 0; s < prog.n_sems; ++s) {
      sems.push_back(std::make_unique<sync::CountingSemaphore>(
          cfg.lock_impl, alloc, cfg.n_nodes, prog.sem_initial[s]));
      // Counts are seeded by poking backing memory before tick 0 (caches
      // are empty, so this is equivalent to the one-time init coroutine
      // without needing a startup phase).
      m.poke_memory(sems.back()->count_addr(), prog.sem_initial[s]);
    }

    barrier = sync::make_barrier(cfg.barrier_impl, alloc, cfg.n_nodes);
  }
};

sim::Task interpret_node(core::Processor& p, const DrfProgram& prog, std::uint32_t n,
                         Layout& lay, std::vector<std::vector<MachineObs>>& obs) {
  const auto& code = prog.code[n];
  for (std::uint32_t i = 0; i < code.size(); ++i) {
    const DrfOp& op = code[i];
    switch (op.kind) {
      case OpKind::kCompute:
        co_await p.compute(op.id);
        break;
      case OpKind::kWrite:
        co_await workload::shared_write(p, lay.var_addr[op.id], op.value);
        break;
      case OpKind::kRead: {
        const Word v = co_await workload::shared_read_once(p, lay.var_addr[op.id]);
        if (op.observed) obs[n].push_back({i, op.id, v, p.simulator().now()});
        break;
      }
      case OpKind::kLock:
        co_await lay.locks[op.id]->acquire(p);
        break;
      case OpKind::kUnlock:
        co_await lay.locks[op.id]->release(p);
        break;
      case OpKind::kCsAdd: {
        const bool rides = lay.var_rides_lock[op.id] != 0;
        const Addr a = lay.var_addr[op.id];
        const Word v = co_await workload::cs_read(p, a, rides);
        co_await workload::cs_write(p, a, v + op.value, rides);
        break;
      }
      case OpKind::kBarrier:
        co_await lay.barrier->wait(p);
        break;
      case OpKind::kSemP:
        co_await lay.sems[op.id]->p_op(p);
        break;
      case OpKind::kSemV:
        co_await lay.sems[op.id]->v_op(p);
        break;
    }
  }
}

}  // namespace

MachineRunResult run_on_machine(const DrfProgram& prog, const core::MachineConfig& cfg,
                                Tick budget, std::ostream* trace_tail) {
  if (cfg.n_nodes != prog.gen.n_nodes) {
    throw std::invalid_argument("run_on_machine: cfg.n_nodes != program's node count");
  }
  MachineRunResult r;
  r.obs.resize(prog.gen.n_nodes);

  core::Machine m(cfg);
  Layout lay(prog, m);
  r.var_addr = lay.var_addr;
  r.sem_addr.reserve(prog.n_sems);
  for (std::uint32_t s = 0; s < prog.n_sems; ++s) {
    r.sem_addr.push_back(lay.sems[s]->count_addr());
  }

  for (std::uint32_t n = 0; n < prog.gen.n_nodes; ++n) {
    m.spawn(interpret_node(m.processor(n), prog, n, lay, r.obs));
  }
  try {
    r.completion = m.run(budget);
    r.completed = m.all_done() && m.quiescent();
    if (!r.completed) r.error = "programs stuck or protocol not quiescent";
  } catch (const std::exception& ex) {
    r.completion = m.simulator().now();
    r.error = ex.what();
    if (trace_tail != nullptr && cfg.trace) m.dump_trace(*trace_tail);
    return r;
  }
  if (trace_tail != nullptr && cfg.trace) m.dump_trace(*trace_tail);

  r.final_vars.reserve(prog.n_vars);
  for (std::uint32_t v = 0; v < prog.n_vars; ++v) {
    r.final_vars.push_back(m.peek_coherent(lay.var_addr[v]));
  }
  r.final_sems.reserve(prog.n_sems);
  for (std::uint32_t s = 0; s < prog.n_sems; ++s) {
    r.final_sems.push_back(m.peek_coherent(lay.sems[s]->count_addr()));
  }
  return r;
}

}  // namespace bcsim::ref
