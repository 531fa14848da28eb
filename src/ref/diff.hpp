// Differential-oracle harness: machine flavors, result comparison,
// first-divergence reporting, and the oracle cell that `bcsim diff` and
// `bcsim chaos` sweep (docs/TESTING.md, "Differential testing" and "Chaos
// testing & liveness").
//
// One comparison = one DRF program (drf_program.hpp) executed on the
// golden SC reference (ref_machine.hpp) and on a full machine flavor
// (machine_runner.hpp) under one schedule seed. A clean comparison means
// the machine's observable behavior is sequentially consistent for that
// properly-synchronized program — the paper's section 3 claim, checked
// end-to-end. A Cell adds the fabric, an optional fault plan and the
// liveness watchdog, and run_cell classifies the run into one Verdict.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "ref/drf_program.hpp"
#include "ref/machine_runner.hpp"
#include "ref/ref_machine.hpp"

namespace bcsim::ref {

/// The three machine flavors the oracle checks against the reference.
enum class Flavor : std::uint8_t {
  kWbi,  ///< write-back invalidate + SC + TTS locks + central barrier
  kRu,   ///< the paper machine: read-update + BC + CBL lock/barrier
  kCbl,  ///< CBL synchronization on the WBI data protocol
};

[[nodiscard]] const char* to_string(Flavor f) noexcept;

/// Parses "wbi" / "ru" / "cbl".
[[nodiscard]] std::optional<Flavor> parse_flavor(std::string_view s) noexcept;

/// Machine configuration for a flavor (omega network, quiescent-level
/// invariants; the oracle is the whole-execution check, the invariant
/// sweep is a cheap backstop).
[[nodiscard]] core::MachineConfig flavor_config(Flavor f, std::uint32_t n_nodes,
                                                std::uint64_t schedule_seed);

/// The fabric and directory knobs an oracle cell (`bcsim diff`, `model`,
/// `chaos`) sets on top of its flavor's machine.
struct Fabric {
  core::NetworkKind network = core::NetworkKind::kOmega;
  /// Per-port buffer depth: 0 = the paper's infinite buffering, B > 0 =
  /// bounded with credit-based flow control (net/network.hpp).
  std::uint32_t buffer_depth = 0;
  std::uint32_t dir_limit = 0;  ///< directory pointer budget; 0 = full map
  core::DirOverflow dir_overflow = core::DirOverflow::kBroadcast;
  std::uint32_t dir_region = 4;  ///< nodes per coarse-vector region
  bool operator==(const Fabric&) const = default;
};

/// flavor_config() with `fabric` applied and `plan` armed. A plan with
/// network faults also arms a 4096-tick watchdog, so a cell cannot hang
/// silently.
[[nodiscard]] core::MachineConfig cell_machine_config(Flavor f, std::uint32_t n_nodes,
                                                      std::uint64_t schedule_seed,
                                                      const Fabric& fabric,
                                                      const sim::FaultPlan& plan);

/// The first point where a machine execution departed from the reference.
struct Divergence {
  enum class Kind : std::uint8_t {
    kNone,
    kMachineError,  ///< stuck, budget exhausted, or invariant violation
    kObsRead,       ///< an observed read returned a non-SC value
    kObsStream,     ///< observed-read streams have different lengths
    kFinalVar,      ///< final memory mismatch
    kFinalSem,      ///< final semaphore count mismatch
  };

  Kind kind = Kind::kNone;
  std::uint32_t node = 0;
  std::uint32_t op_index = 0;
  std::uint32_t var = 0;
  Addr addr = 0;
  BlockId block = 0;  ///< addr / block_words — names the memory block
  Tick tick = 0;      ///< machine cycle of the diverging read / completion
  Word machine_value = 0;
  Word ref_value = 0;
  std::string detail;  ///< ready-to-print one-line diagnosis

  [[nodiscard]] bool found() const noexcept { return kind != Kind::kNone; }
};

/// Compares a machine run against the reference; returns the earliest
/// divergence (observed reads are ordered by machine tick across nodes).
[[nodiscard]] Divergence compare_runs(const DrfProgram& prog, const RefResult& ref,
                                      const MachineRunResult& mach,
                                      std::uint32_t block_words);

/// Generates nothing; runs `prog` on `flavor` under `schedule_seed` and
/// compares against `ref`. `base` lets callers inject faults or tracing;
/// when omitted, flavor_config defaults are used.
[[nodiscard]] Divergence diff_one(const DrfProgram& prog, const RefResult& ref,
                                  Flavor flavor, std::uint64_t schedule_seed,
                                  const core::MachineConfig* base = nullptr,
                                  Tick budget = 100'000'000);

/// One oracle cell: a generated DRF program run on one machine flavor and
/// fabric, under one schedule seed and an optional fault plan.
struct Cell {
  Flavor flavor = Flavor::kRu;
  Fabric fabric;
  std::uint64_t program_seed = 0;
  std::uint64_t schedule_seed = 0;
  std::uint32_t nodes = 8;
  std::uint32_t phases = 3;
  /// Fault-plan registry name or inline spec (sim::resolve_fault_plan);
  /// empty = a healthy fabric.
  std::string plan;
  /// Overrides the plan's lottery seed, so one spec fans out into many
  /// distinct fault patterns; unset = the seed the spec names.
  std::optional<std::uint64_t> fault_seed;
  /// Liveness watchdog interval; unset = cell_machine_config's choice
  /// (armed at 4096 ticks exactly when the plan has network rules).
  std::optional<Tick> watchdog;
  std::uint32_t watchdog_stalls = 3;
  std::size_t trace_dump = 64;  ///< trace-tail size in watchdog reports
  bool operator==(const Cell&) const = default;
};

/// The machine a cell runs on. Throws std::invalid_argument for an
/// unresolvable plan spec.
[[nodiscard]] core::MachineConfig cell_config(const Cell& cell);

/// A cell's program and its SC reference run, shared by every cell of one
/// program seed.
struct Oracle {
  DrfProgram prog;
  RefResult ref;
  /// Two reference schedules agreed and neither deadlocked: the program is
  /// data-race-free. False is a generator bug, not a machine verdict.
  bool drf = false;
};

[[nodiscard]] Oracle make_oracle(const Cell& cell);

/// How a cell ended:
///   * transparent — completed and indistinguishable from the SC reference
///     (any injected fault was masked);
///   * diagnosed — terminated with a liveness-watchdog or invariant
///     diagnosis, which is how a fabric that cannot recover must fail;
///   * wrong — completed but diverged from the reference: a protocol bug;
///   * hung — died without a diagnosis (bare budget exhaustion, an
///     unexpected exception): the watchdog missed it.
enum class Verdict : std::uint8_t { kTransparent, kDiagnosed, kWrong, kHung };

[[nodiscard]] const char* to_string(Verdict v) noexcept;
[[nodiscard]] std::optional<Verdict> parse_verdict(std::string_view s) noexcept;

struct CellResult {
  Verdict verdict = Verdict::kHung;
  Divergence divergence;  ///< kNone exactly when transparent
};

/// Runs `cell` against `oracle` (built by make_oracle for the same program
/// seed, nodes and phases). Simulation failures never throw; they
/// classify the cell.
[[nodiscard]] CellResult run_cell(const Cell& cell, const Oracle& oracle,
                                  Tick budget = 100'000'000);

}  // namespace bcsim::ref
