// Scenario: the one construction path from a declarative description —
// a resolved config Table, whose keys CLI flags alias (conf/options.hpp)
// — to a live MachineConfig and workload. Every run funnels through
// resolve_scenario()/build_machine()/WorkloadInstance, which is what makes
// a config-built run bit-identical to its flag-built equivalent (the
// golden conformance grid in tests/test_configs.cpp pins this).
//
// Config schema (docs/CONFIGS.md):
//
//   [machine]
//   nodes = 16            flavor = paper        consistency = bc
//   lock = cbl            barrier = cbl
//   network = omega       net_buffer_depth = 0  block_words = 4
//   dir_limit = 0         dir_overflow = broadcast   dir_region = 4
//   seed = 1              schedule_seed = 0     invariants = off
//   fault_plan = drop:p=0.05;seed=3             watchdog = 0
//   watchdog_stalls = 3   trace_dump = 64
//
//   [workload]
//   kind = work-queue     # work-queue | sync-model | solver | stencil
//                         # | grid | fft  — or source = trace:<file>
//   ... per-model knobs (see resolve_scenario) ...
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "conf/conf.hpp"
#include "core/config.hpp"
#include "workload/fft_phases.hpp"
#include "workload/grid_stencil.hpp"
#include "workload/linear_solver.hpp"
#include "workload/stencil.hpp"
#include "workload/sync_model.hpp"
#include "workload/trace.hpp"
#include "workload/work_queue_model.hpp"

namespace bcsim::conf {

/// Machine description in flag vocabulary (names, not enums). Defaults
/// mirror the historical CLI defaults exactly.
struct MachineSpec {
  std::uint32_t nodes = 16;
  /// Compatibility member, not a knob: the kernel is serial and no conf
  /// key or flag sets this. It survives only because the benchmark harness
  /// (perfbench/harness.cpp) still assigns it; a later change to that
  /// harness removes the assignment, and this field goes with it.
  /// build_machine() rejects any value but 1.
  std::uint32_t shards = 1;
  std::string flavor = "paper";  ///< paper | wbi | cbl-on-wbi
  std::string consistency = "bc";
  std::string lock;     ///< empty: the flavor's default
  std::string barrier;  ///< empty: the flavor's default
  std::string network = "omega";
  std::uint32_t buffer_depth = 0;
  std::uint32_t dir_limit = 0;
  std::string dir_overflow = "broadcast";
  std::uint32_t dir_region = 4;
  std::uint32_t block_words = 4;
  std::uint64_t seed = 1;
  std::uint64_t schedule_seed = 0;
  std::string invariants = "off";
  std::string fault_plan;
  std::uint64_t watchdog = 0;
  std::uint32_t watchdog_stalls = 3;
  std::size_t trace_dump = 64;
  bool trace = false;  ///< event-trace recorder (the `trace` subcommand)
  std::size_t trace_capacity = std::size_t{1} << 16;
  bool operator==(const MachineSpec&) const = default;
};

/// Resolves a MachineSpec into a validated MachineConfig — the exact
/// mapping the CLI's historical build_config performed. Unknown names
/// throw UsageError; invalid combinations propagate cfg.validate()'s
/// std::invalid_argument.
[[nodiscard]] core::MachineConfig build_machine(const MachineSpec& spec);

/// Workload description: one of the six built-in models (each carrying
/// its full knob struct) or a trace replay.
struct WorkloadSpec {
  std::string kind = "work-queue";
  std::string trace_file;  ///< kind == "trace": path to the replay trace
  workload::WorkQueueConfig work_queue;
  workload::SyncModelConfig sync_model;
  workload::LinearSolverConfig solver;
  workload::StencilConfig stencil;
  workload::GridStencilConfig grid;
  workload::FftPhasesConfig fft;
};

struct Scenario {
  MachineSpec machine;
  WorkloadSpec workload;
};

/// Resolves the [machine] and [workload] sections of a parsed config into
/// a Scenario, consuming every key it understands. Schema violations
/// (bad type, out of range, unknown enum name) throw ConfError naming
/// the offending key's file:line. The caller finishes with
/// Table::expect_all_consumed to reject unknown keys.
[[nodiscard]] Scenario resolve_scenario(const Table& t);

/// Constructs the selected workload on a machine and registers its
/// programs (spawn_all). Keeps the workload object alive for post-run
/// queries; the typed accessors return nullptr for the other kinds.
class WorkloadInstance {
 public:
  /// Throws UsageError for an unknown kind, std::invalid_argument for an
  /// unreadable/malformed trace file.
  WorkloadInstance(core::Machine& m, const WorkloadSpec& spec);

  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }
  [[nodiscard]] workload::WorkQueueWorkload* work_queue() noexcept { return wq_.get(); }
  [[nodiscard]] workload::SyncModelWorkload* sync_model() noexcept { return sm_.get(); }
  [[nodiscard]] workload::LinearSolverWorkload* solver() noexcept { return solver_.get(); }
  [[nodiscard]] workload::StencilWorkload* stencil() noexcept { return stencil_.get(); }
  [[nodiscard]] workload::GridStencilWorkload* grid() noexcept { return grid_.get(); }
  [[nodiscard]] workload::FftPhasesWorkload* fft() noexcept { return fft_.get(); }
  [[nodiscard]] workload::TraceWorkload* trace() noexcept { return trace_.get(); }

 private:
  std::string kind_;
  std::unique_ptr<workload::WorkQueueWorkload> wq_;
  std::unique_ptr<workload::SyncModelWorkload> sm_;
  std::unique_ptr<workload::LinearSolverWorkload> solver_;
  std::unique_ptr<workload::StencilWorkload> stencil_;
  std::unique_ptr<workload::GridStencilWorkload> grid_;
  std::unique_ptr<workload::FftPhasesWorkload> fft_;
  std::unique_ptr<workload::TraceWorkload> trace_;
};

}  // namespace bcsim::conf
