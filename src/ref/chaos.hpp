// Chaos harness: fault-plan x seed x flavor x network sweeps with a
// transparent-or-diagnosed verdict per cell (docs/TESTING.md, "Chaos
// testing & liveness").
//
// One cell = one DRF program executed on one machine flavor with one
// fault plan armed (sim/fault_plan.hpp) and the liveness watchdog on.
// The robustness contract the sweep enforces:
//
//   * transparent — the run completed and the differential oracle
//     (ref/diff.hpp) found it indistinguishable from the SC reference;
//     retries/NACKs masked every injected fault. The oracle is the right
//     equivalence: DRF observations are schedule-independent, so delay and
//     retransmission noise cannot produce false alarms.
//   * diagnosed — the run terminated with a liveness-watchdog or
//     invariant diagnosis (e.g. retries disabled and a message lost);
//     failing loudly with a wait-for graph is the accepted outcome.
//   * wrong — the run completed but diverged from the reference: a fault
//     leaked through the protocols. Always a bug.
//   * hung — the run died without a diagnosis (bare budget exhaustion,
//     unexpected exception). Always a bug: the watchdog missed it.
//
// `bcsim chaos` (tools/bcsim_chaos.cpp) sweeps the grid and fails on any
// wrong/hung cell; tests/test_chaos.cpp drives cells directly and replays
// the committed corpus (tests/chaos_corpus.txt).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "ref/diff.hpp"

namespace bcsim::ref {

/// One point of the chaos grid. `plan` is a registry name or inline spec
/// (sim::resolve_fault_plan); `fault_seed` overrides the plan's lottery
/// seed so one spec fans out into many distinct fault patterns.
struct ChaosCell {
  std::string plan = "drop";
  std::uint64_t fault_seed = 0;
  Flavor flavor = Flavor::kRu;
  /// Network plus the bounded-fabric and limited-directory knobs. Only the
  /// network is part of the corpus line format (the parser rejects
  /// trailing fields); tests and `bcsim chaos` set the rest
  /// programmatically.
  Fabric fabric;
  std::uint64_t program_seed = 0;
  std::uint64_t schedule_seed = 0;
  std::uint32_t nodes = 8;
  std::uint32_t phases = 3;
  Tick watchdog_interval = 4096;
  std::uint32_t watchdog_stalls = 3;
  std::size_t trace_dump = 64;  ///< trace-tail size in watchdog reports
};

enum class ChaosVerdict : std::uint8_t { kTransparent, kDiagnosed, kWrong, kHung };

[[nodiscard]] const char* to_string(ChaosVerdict v) noexcept;

struct ChaosOutcome {
  ChaosVerdict verdict = ChaosVerdict::kHung;
  Tick completion = 0;      ///< completion tick (transparent/wrong cells)
  std::string detail;       ///< diagnosis headline / divergence / error text
};

/// Runs one cell: generates the DRF program, executes it on the faulted
/// machine with the watchdog armed, and classifies the result against the
/// SC reference. Throws std::invalid_argument for an unresolvable plan
/// spec; simulation failures never throw (they classify the cell).
[[nodiscard]] ChaosOutcome run_chaos_cell(const ChaosCell& cell,
                                          Tick budget = 50'000'000);

/// One corpus line: the cell plus the verdict it must reproduce.
struct ChaosCorpusEntry {
  ChaosCell cell;
  ChaosVerdict expected = ChaosVerdict::kTransparent;
};

/// Corpus line format (whitespace-separated, '#' comments):
///   <plan> <fault_seed> <flavor> <network> <program_seed> <schedule_seed>
///   <nodes> <phases> <verdict>
/// Plan specs contain no whitespace by construction, so the format stays
/// line-oriented. parse returns nullopt for comments/blank lines and
/// throws std::invalid_argument on a malformed line.
[[nodiscard]] std::optional<ChaosCorpusEntry> parse_chaos_corpus_line(
    const std::string& line);
[[nodiscard]] std::string format_chaos_corpus_line(const ChaosCorpusEntry& e);

/// Loads every entry of a corpus file; throws std::runtime_error when the
/// file cannot be opened, std::invalid_argument on a malformed line (with
/// its line number).
[[nodiscard]] std::vector<ChaosCorpusEntry> load_chaos_corpus(const std::string& path);

}  // namespace bcsim::ref
