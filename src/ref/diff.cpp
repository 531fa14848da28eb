#include "ref/diff.hpp"

#include <limits>
#include <sstream>

#include "sim/fault_plan.hpp"

namespace bcsim::ref {

const char* to_string(Flavor f) noexcept {
  switch (f) {
    case Flavor::kWbi: return "wbi";
    case Flavor::kRu: return "ru";
    case Flavor::kCbl: return "cbl";
  }
  return "?";
}

std::optional<Flavor> parse_flavor(std::string_view s) noexcept {
  if (s == "wbi") return Flavor::kWbi;
  if (s == "ru") return Flavor::kRu;
  if (s == "cbl") return Flavor::kCbl;
  return std::nullopt;
}

core::MachineConfig flavor_config(Flavor f, std::uint32_t n_nodes,
                                  std::uint64_t schedule_seed) {
  core::MachineConfig cfg;
  cfg.n_nodes = n_nodes;
  cfg.network = core::NetworkKind::kOmega;
  cfg.schedule_seed = schedule_seed;
  cfg.invariants = sim::InvariantLevel::kQuiesce;
  switch (f) {
    case Flavor::kWbi:
      cfg.data_protocol = core::DataProtocol::kWbi;
      cfg.consistency = core::Consistency::kSequential;
      cfg.lock_impl = core::LockImpl::kTts;
      cfg.barrier_impl = core::BarrierImpl::kCentral;
      break;
    case Flavor::kRu:
      cfg.data_protocol = core::DataProtocol::kReadUpdate;
      cfg.consistency = core::Consistency::kBuffered;
      cfg.lock_impl = core::LockImpl::kCbl;
      cfg.barrier_impl = core::BarrierImpl::kCbl;
      break;
    case Flavor::kCbl:
      cfg.data_protocol = core::DataProtocol::kWbi;
      cfg.consistency = core::Consistency::kSequential;
      cfg.lock_impl = core::LockImpl::kCbl;
      cfg.barrier_impl = core::BarrierImpl::kCbl;
      break;
  }
  cfg.validate();
  return cfg;
}

core::MachineConfig cell_machine_config(Flavor f, std::uint32_t n_nodes,
                                        std::uint64_t schedule_seed, const Fabric& fabric,
                                        const sim::FaultPlan& plan) {
  core::MachineConfig cfg = flavor_config(f, n_nodes, schedule_seed);
  cfg.network = fabric.network;
  cfg.net_buffer_depth = fabric.buffer_depth;
  cfg.dir_pointer_limit = fabric.dir_limit;
  cfg.dir_overflow = fabric.dir_overflow;
  cfg.dir_region_nodes = fabric.dir_region;
  core::apply_fault_plan(cfg, plan);
  if (plan.has_net_rules()) cfg.watchdog_interval = 4096;
  return cfg;
}

namespace {

void name_location(Divergence& d, const MachineRunResult& mach, std::uint32_t var,
                   std::uint32_t block_words) {
  d.var = var;
  d.addr = var < mach.var_addr.size() ? mach.var_addr[var] : 0;
  d.block = block_words != 0 ? d.addr / block_words : 0;
}

}  // namespace

Divergence compare_runs(const DrfProgram& prog, const RefResult& ref,
                        const MachineRunResult& mach, std::uint32_t block_words) {
  Divergence d;
  std::ostringstream os;

  if (!mach.error.empty() || !mach.completed) {
    d.kind = Divergence::Kind::kMachineError;
    d.tick = mach.completion;
    os << "machine failed at tick " << mach.completion << ": "
       << (mach.error.empty() ? "did not complete" : mach.error);
    d.detail = os.str();
    return d;
  }
  if (ref.deadlocked) {
    d.kind = Divergence::Kind::kMachineError;
    os << "reference deadlocked — generator emitted a non-DRF program (bug)";
    d.detail = os.str();
    return d;
  }

  // Observed reads: the earliest mismatch by machine tick across nodes.
  Tick best_tick = std::numeric_limits<Tick>::max();
  for (std::uint32_t n = 0; n < prog.gen.n_nodes; ++n) {
    const auto& rv = ref.obs[n];
    const auto& mv = mach.obs[n];
    const std::size_t common = rv.size() < mv.size() ? rv.size() : mv.size();
    for (std::size_t i = 0; i < common; ++i) {
      if (rv[i].value == mv[i].value && rv[i].var == mv[i].var) continue;
      if (mv[i].tick >= best_tick) break;
      best_tick = mv[i].tick;
      d.kind = Divergence::Kind::kObsRead;
      d.node = n;
      d.op_index = mv[i].op_index;
      d.tick = mv[i].tick;
      d.machine_value = mv[i].value;
      d.ref_value = rv[i].value;
      name_location(d, mach, mv[i].var, block_words);
      break;
    }
    if (rv.size() != mv.size() && d.kind == Divergence::Kind::kNone) {
      d.kind = Divergence::Kind::kObsStream;
      d.node = n;
      os.str("");
      os << "node " << n << " observed " << mv.size() << " reads, reference "
         << rv.size();
      d.detail = os.str();
      return d;
    }
  }
  if (d.kind == Divergence::Kind::kObsRead) {
    os << "node " << d.node << " op " << d.op_index << " READ var " << d.var
       << " (addr " << d.addr << ", block " << d.block << ") at tick " << d.tick
       << ": machine read " << d.machine_value << ", SC reference expects "
       << d.ref_value;
    d.detail = os.str();
    return d;
  }

  for (std::uint32_t v = 0; v < prog.n_vars; ++v) {
    if (mach.final_vars[v] == ref.final_vars[v]) continue;
    d.kind = Divergence::Kind::kFinalVar;
    d.tick = mach.completion;
    d.machine_value = mach.final_vars[v];
    d.ref_value = ref.final_vars[v];
    name_location(d, mach, v, block_words);
    os << "final memory: var " << v << " (addr " << d.addr << ", block " << d.block
       << ") at completion tick " << d.tick << ": machine holds " << d.machine_value
       << ", SC reference expects " << d.ref_value;
    d.detail = os.str();
    return d;
  }

  for (std::uint32_t s = 0; s < prog.n_sems; ++s) {
    if (mach.final_sems[s] == ref.final_sems[s]) continue;
    d.kind = Divergence::Kind::kFinalSem;
    d.tick = mach.completion;
    d.machine_value = mach.final_sems[s];
    d.ref_value = ref.final_sems[s];
    d.var = s;
    d.addr = s < mach.sem_addr.size() ? mach.sem_addr[s] : 0;
    d.block = block_words != 0 ? d.addr / block_words : 0;
    os << "final semaphore " << s << " count (addr " << d.addr << ", block "
       << d.block << ") at completion tick " << d.tick << ": machine holds "
       << d.machine_value << ", SC reference expects " << d.ref_value;
    d.detail = os.str();
    return d;
  }

  return d;
}

Divergence diff_one(const DrfProgram& prog, const RefResult& ref, Flavor flavor,
                    std::uint64_t schedule_seed, const core::MachineConfig* base,
                    Tick budget) {
  core::MachineConfig cfg =
      base != nullptr ? *base : flavor_config(flavor, prog.gen.n_nodes, schedule_seed);
  cfg.n_nodes = prog.gen.n_nodes;
  cfg.schedule_seed = schedule_seed;
  const MachineRunResult mach = run_on_machine(prog, cfg, budget);
  return compare_runs(prog, ref, mach, cfg.block_words);
}

core::MachineConfig cell_config(const Cell& cell) {
  sim::FaultPlan plan =
      cell.plan.empty() ? sim::FaultPlan{} : sim::resolve_fault_plan(cell.plan);
  if (cell.fault_seed) plan.seed = *cell.fault_seed;
  core::MachineConfig cfg =
      cell_machine_config(cell.flavor, cell.nodes, cell.schedule_seed, cell.fabric, plan);
  if (cell.watchdog) cfg.watchdog_interval = *cell.watchdog;
  cfg.watchdog_stalls = cell.watchdog_stalls;
  cfg.trace_dump = cell.trace_dump;
  return cfg;
}

Oracle make_oracle(const Cell& cell) {
  DrfGenConfig gen;
  gen.n_nodes = cell.nodes;
  gen.phases = cell.phases;
  Oracle o{generate_drf_program(cell.program_seed, gen), {}, false};
  // A DRF program's comparison stream must not depend on the reference
  // schedule; a second schedule is the generator's self-check.
  o.ref = RefMachine(o.prog, 1).run();
  const RefResult again = RefMachine(o.prog, 0x9e3779b97f4a7c15ULL).run();
  o.drf = !o.ref.deadlocked && ref_results_agree(o.ref, again);
  return o;
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kTransparent: return "transparent";
    case Verdict::kDiagnosed: return "diagnosed";
    case Verdict::kWrong: return "wrong";
    case Verdict::kHung: return "hung";
  }
  return "?";
}

std::optional<Verdict> parse_verdict(std::string_view s) noexcept {
  for (const Verdict v :
       {Verdict::kTransparent, Verdict::kDiagnosed, Verdict::kWrong, Verdict::kHung}) {
    if (s == to_string(v)) return v;
  }
  return std::nullopt;
}

CellResult run_cell(const Cell& cell, const Oracle& oracle, Tick budget) {
  const core::MachineConfig cfg = cell_config(cell);
  const MachineRunResult mach = run_on_machine(oracle.prog, cfg, budget);
  CellResult out;
  out.divergence = compare_runs(oracle.prog, oracle.ref, mach, cfg.block_words);
  if (mach.completed && mach.error.empty()) {
    out.verdict = out.divergence.found() ? Verdict::kWrong : Verdict::kTransparent;
  } else if (mach.error.find("liveness watchdog") != std::string::npos ||
             mach.error.find("invariant violation") != std::string::npos) {
    // A terminated run is diagnosed only when it explains itself; a bare
    // budget exhaustion or an unexpected exception is a hang.
    out.verdict = Verdict::kDiagnosed;
  }
  return out;
}

}  // namespace bcsim::ref
