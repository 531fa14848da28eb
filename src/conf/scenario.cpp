#include "conf/scenario.hpp"

#include <fstream>
#include <stdexcept>

#include "conf/strict_parse.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::conf {

core::MachineConfig build_machine(const MachineSpec& o) {
  core::MachineConfig cfg;
  if (o.shards != 1) {
    throw std::invalid_argument("MachineSpec::shards must be 1: the sharded kernel was removed");
  }
  cfg.n_nodes = o.nodes;
  cfg.block_words = o.block_words;
  cfg.network = parse_network(o.network);
  cfg.net_buffer_depth = o.buffer_depth;
  cfg.dir_pointer_limit = o.dir_limit;
  cfg.dir_overflow = parse_dir_overflow(o.dir_overflow);
  cfg.dir_region_nodes = o.dir_region;
  cfg.seed = o.seed;
  cfg.schedule_seed = o.schedule_seed;
  cfg.invariants = parse_invariants(o.invariants);
  cfg.trace = o.trace;
  cfg.trace_capacity = o.trace_capacity;
  cfg.trace_dump = o.trace_dump;
  cfg.watchdog_interval = o.watchdog;
  cfg.watchdog_stalls = o.watchdog_stalls;
  if (!o.fault_plan.empty()) {
    sim::FaultPlan plan;
    try {
      plan = sim::resolve_fault_plan(o.fault_plan);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    core::apply_fault_plan(cfg, plan);
    // An unreliable fabric without a watchdog can hang silently; arm a
    // default interval unless the user picked one.
    if (plan.has_net_rules() && cfg.watchdog_interval == 0) {
      cfg.watchdog_interval = 4096;
    }
  }
  if (o.flavor == "paper") {
    cfg.data_protocol = core::DataProtocol::kReadUpdate;
    cfg.consistency = o.consistency == "sc" ? core::Consistency::kSequential
                                            : core::Consistency::kBuffered;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
  } else if (o.flavor == "wbi") {
    cfg.data_protocol = core::DataProtocol::kWbi;
    cfg.lock_impl = core::LockImpl::kTts;
    cfg.barrier_impl = core::BarrierImpl::kCentral;
  } else if (o.flavor == "cbl-on-wbi") {
    cfg.data_protocol = core::DataProtocol::kWbi;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
  } else {
    throw UsageError("unknown machine '" + o.flavor + "'");
  }
  if (!o.lock.empty()) cfg.lock_impl = parse_lock(o.lock);
  if (!o.barrier.empty()) cfg.barrier_impl = parse_barrier(o.barrier);
  cfg.validate();
  return cfg;
}

namespace {

/// Present-only percentage knob: leaves the struct's double default
/// untouched when the key is absent, so config-built defaults stay
/// bit-identical to flag-built ones.
void pct(const Table& t, std::string_view key, double& field) {
  if (t.has(key)) {
    field = static_cast<double>(t.get_int(key, 0, 0, 100)) / 100.0;
  }
}

void u32_knob(const Table& t, std::string_view key, std::uint32_t& field,
              std::uint32_t min = 0, std::uint32_t max = UINT32_MAX) {
  field = t.get_u32(key, field, min, max);
}

}  // namespace

Scenario resolve_scenario(const Table& t) {
  Scenario s;
  MachineSpec& m = s.machine;
  u32_knob(t, "machine.nodes", m.nodes, 1);
  m.flavor = t.get_name("machine.flavor", m.flavor, {"paper", "wbi", "cbl-on-wbi"});
  m.consistency = t.get_name("machine.consistency", m.consistency, {"sc", "bc"});
  m.lock = t.get_name("machine.lock", m.lock,
                      {"", "cbl", "tts", "tts-backoff", "ticket", "mcs"});
  m.barrier = t.get_name("machine.barrier", m.barrier, {"", "cbl", "central", "tree"});
  m.network =
      t.get_name("machine.network", m.network, {"omega", "crossbar", "mesh", "ideal"});
  u32_knob(t, "machine.net_buffer_depth", m.buffer_depth);
  u32_knob(t, "machine.dir_limit", m.dir_limit);
  m.dir_overflow =
      t.get_name("machine.dir_overflow", m.dir_overflow, {"broadcast", "coarse"});
  u32_knob(t, "machine.dir_region", m.dir_region, 1);
  u32_knob(t, "machine.block_words", m.block_words, 1, 32);
  m.seed = t.get_u64("machine.seed", m.seed);
  m.schedule_seed = t.get_u64("machine.schedule_seed", m.schedule_seed);
  m.invariants =
      t.get_name("machine.invariants", m.invariants, {"off", "quiesce", "full"});
  m.fault_plan = t.get_string("machine.fault_plan", m.fault_plan);
  m.watchdog = t.get_u64("machine.watchdog", m.watchdog);
  u32_knob(t, "machine.watchdog_stalls", m.watchdog_stalls, 1);
  m.trace_dump = t.get_u64("machine.trace_dump", m.trace_dump);

  WorkloadSpec& w = s.workload;
  w.kind = t.get_name(
      "workload.kind", w.kind,
      {"work-queue", "sync-model", "solver", "stencil", "grid", "fft", "trace"});
  const std::string source = t.get_string("workload.source", "");
  if (!source.empty()) {
    constexpr std::string_view kPrefix = "trace:";
    if (source.rfind(kPrefix, 0) != 0 || source.size() == kPrefix.size()) {
      throw ConfError(t.loc("workload.source"),
                      "key 'workload.source' must be 'trace:<file>', got '" + source +
                          "'");
    }
    w.kind = "trace";
    w.trace_file = source.substr(kPrefix.size());
    // `source` usually arrives as a -k override re-driving a config whose
    // [workload] describes the run the trace was recorded from; those
    // model knobs are part of the provenance, not schema violations.
    for (const char* knob :
         {"workload.tasks", "workload.grain", "workload.initial_tasks",
          "workload.shared_blocks", "workload.shared_pct", "workload.read_pct",
          "workload.spawn_pct", "workload.tasks_per_proc", "workload.locks",
          "workload.cs_references", "workload.lock_pct", "workload.schedule_seed",
          "workload.iterations", "workload.matrix_seed", "workload.separate_x_blocks",
          "workload.cells_per_proc", "workload.sweeps", "workload.data_seed",
          "workload.grid", "workload.words_per_region"}) {
      t.consume(knob);
    }
  }
  if (w.kind == "work-queue") {
    u32_knob(t, "workload.tasks", w.work_queue.total_tasks, 1);
    u32_knob(t, "workload.grain", w.work_queue.grain);
    u32_knob(t, "workload.initial_tasks", w.work_queue.initial_tasks);
    u32_knob(t, "workload.shared_blocks", w.work_queue.n_shared_blocks, 1);
    pct(t, "workload.shared_pct", w.work_queue.shared_ratio);
    pct(t, "workload.read_pct", w.work_queue.read_ratio);
    pct(t, "workload.spawn_pct", w.work_queue.spawn_prob);
  } else if (w.kind == "sync-model") {
    u32_knob(t, "workload.tasks_per_proc", w.sync_model.tasks_per_proc, 1);
    u32_knob(t, "workload.grain", w.sync_model.grain);
    u32_knob(t, "workload.shared_blocks", w.sync_model.n_shared_blocks, 1);
    u32_knob(t, "workload.locks", w.sync_model.n_locks, 1);
    u32_knob(t, "workload.cs_references", w.sync_model.cs_references);
    pct(t, "workload.shared_pct", w.sync_model.shared_ratio);
    pct(t, "workload.read_pct", w.sync_model.read_ratio);
    pct(t, "workload.lock_pct", w.sync_model.lock_ratio);
    w.sync_model.schedule_seed =
        t.get_u64("workload.schedule_seed", w.sync_model.schedule_seed);
  } else if (w.kind == "solver") {
    u32_knob(t, "workload.iterations", w.solver.iterations);
    w.solver.matrix_seed = t.get_u64("workload.matrix_seed", w.solver.matrix_seed);
    w.solver.separate_x_blocks =
        t.get_bool("workload.separate_x_blocks", w.solver.separate_x_blocks);
  } else if (w.kind == "stencil") {
    u32_knob(t, "workload.cells_per_proc", w.stencil.cells_per_proc, 1);
    u32_knob(t, "workload.sweeps", w.stencil.sweeps);
    w.stencil.data_seed = t.get_u64("workload.data_seed", w.stencil.data_seed);
  } else if (w.kind == "grid") {
    u32_knob(t, "workload.grid", w.grid.grid, 2);
    u32_knob(t, "workload.sweeps", w.grid.sweeps);
    w.grid.data_seed = t.get_u64("workload.data_seed", w.grid.data_seed);
  } else if (w.kind == "fft") {
    u32_knob(t, "workload.words_per_region", w.fft.words_per_region, 1);
    w.fft.data_seed = t.get_u64("workload.data_seed", w.fft.data_seed);
  } else {  // trace
    if (w.trace_file.empty()) {
      w.trace_file = t.get_string("workload.file", "");
    } else {
      t.consume("workload.file");
    }
    if (w.trace_file.empty()) {
      throw ConfError(t.has("workload.kind") ? t.loc("workload.kind") : SourceLoc{},
                      "workload kind 'trace' needs 'source = trace:<file>'");
    }
  }
  return s;
}

WorkloadInstance::WorkloadInstance(core::Machine& m, const WorkloadSpec& spec)
    : kind_(spec.kind) {
  if (spec.kind == "work-queue") {
    wq_ = std::make_unique<workload::WorkQueueWorkload>(m, spec.work_queue);
    wq_->spawn_all(m);
  } else if (spec.kind == "sync-model") {
    sm_ = std::make_unique<workload::SyncModelWorkload>(m, spec.sync_model);
    sm_->spawn_all(m);
  } else if (spec.kind == "solver") {
    solver_ = std::make_unique<workload::LinearSolverWorkload>(m, spec.solver);
    solver_->spawn_all(m);
  } else if (spec.kind == "stencil") {
    stencil_ = std::make_unique<workload::StencilWorkload>(m, spec.stencil);
    stencil_->spawn_all(m);
  } else if (spec.kind == "grid") {
    grid_ = std::make_unique<workload::GridStencilWorkload>(m, spec.grid);
    grid_->spawn_all(m);
  } else if (spec.kind == "fft") {
    fft_ = std::make_unique<workload::FftPhasesWorkload>(m, spec.fft);
    fft_->spawn_all(m);
  } else if (spec.kind == "trace") {
    std::ifstream in(spec.trace_file);
    if (!in) {
      throw std::invalid_argument("trace: cannot open '" + spec.trace_file + "'");
    }
    workload::Trace tr = workload::Trace::parse(in);
    trace_ = std::make_unique<workload::TraceWorkload>(m, std::move(tr));
    trace_->spawn_all(m);
  } else {
    throw UsageError("unknown workload '" + spec.kind + "'");
  }
}

}  // namespace bcsim::conf
