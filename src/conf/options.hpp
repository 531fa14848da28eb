// Command-line options of every `bcsim` subcommand (docs/CONFIGS.md,
// "Flags are config keys").
//
// Each subcommand has one option table mapping every flag to a config key
// (`bcsim run --nodes 8` is `machine.nodes = 8`, `bcsim diff --nodes 8` is
// `diff.nodes = 8`). parse_command_line() turns argv into a Table — the
// `--config` file or an empty table, then its `-k` overrides, then each
// flag as one more assignment — and the section readers below do all
// typing, range checks and defaulting, so a flag and its key cannot
// disagree. Flags of run/check/trace that describe the invocation rather
// than the machine (`--csv`, `--seeds`, ...) alias keys of the reserved
// [cli] section, which a config file or `-k` may not set.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "conf/conf.hpp"
#include "conf/scenario.hpp"
#include "conf/strict_parse.hpp"
#include "ref/diff.hpp"

namespace bcsim::conf {

enum class FlagType : std::uint8_t {
  kInt,     ///< strict non-negative decimal, stored as an integer
  kString,  ///< taken literally: no expression evaluation (paths, specs)
  kSwitch,  ///< takes no value; sets the key to true
};

/// One row of an option table: the flag and the config key it aliases.
struct Flag {
  std::string_view name;  ///< e.g. "--nodes"
  std::string key;        ///< e.g. "machine.nodes"
  FlagType type;
};

/// The option table of "run" (shared by "check"), "trace" (run + --record),
/// "bench", "diff", "model" or "chaos"; std::invalid_argument otherwise.
[[nodiscard]] const std::vector<Flag>& option_table(std::string_view command);

struct CommandLine {
  Table table;
  /// `--dump-config`: `table` holds only the config file and its `-k`
  /// overrides (the parser's view).
  bool dump = false;
};

/// Parses a subcommand's arguments (argv after the subcommand name). A
/// run/check/trace without `--config` starts from the historical flag
/// defaults `--tasks 256 --grain 100 --iters 8`. Throws UsageError for an
/// unknown flag, a missing or malformed value, or `-k`/`--dump-config`
/// without `--config`; ConfError for a bad config file. A flag's value is
/// located at `<flag NAME>`, so a reader's range error names the flag.
[[nodiscard]] CommandLine parse_command_line(std::string_view command,
                                             std::vector<std::string> args);

// Section readers: each consumes its keys with the typed getters and ends
// with Table::expect_all_consumed, ignoring the other subcommands' sections.

/// run/check/trace: the [machine]/[workload] scenario plus [cli]. The
/// flag-only `cli.tasks`/`cli.grain`/`cli.iters` fan out to the keys of
/// the selected workload kind (docs/CONFIGS.md).
struct RunOptions {
  Scenario scenario;
  std::uint64_t seeds = 64;      ///< check: schedule seeds swept
  std::uint64_t first_seed = 0;  ///< check: first schedule seed
  std::string csv;               ///< write all statistics as CSV
  bool report = false;           ///< print the full statistics report
  bool record = false;           ///< trace: capture a replayable trace
  std::string trace_out;         ///< trace output; empty = trace.json / trace.tr
  std::string trace_csv;         ///< trace: also write the records as CSV
};
[[nodiscard]] RunOptions read_run(const Table& t);

struct BenchOptions {
  bool smoke = false;  ///< smaller configurations, shorter timing windows
  std::string out;     ///< output path; empty = "BENCH_<revision>.json"
  /// Label recorded in the JSON (bench.rev, else $BCSIM_REV, else "local").
  std::string revision = "local";
};
[[nodiscard]] BenchOptions read_bench(const Table& t);

using Flavors = std::vector<ref::Flavor>;
using Networks = std::vector<core::NetworkKind>;

struct DiffOptions {
  Flavors flavors{ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl};
  std::uint64_t programs = 8;   ///< program seeds swept
  std::uint64_t schedules = 4;  ///< schedule seeds per program
  std::uint64_t first_program = 0;
  std::uint64_t first_schedule = 0;
  std::uint32_t nodes = 8;
  std::uint32_t phases = 3;
  /// The machine runs' network and directory. The mesh's
  /// distance-dependent paths widen reorder windows, which is what makes
  /// the injected flush-gate faults observable.
  ref::Fabric fabric;
  std::string corpus;  ///< failing cells are appended here (tests/corpus.txt); empty = off
  /// Fault injected into every machine run: a fault-plan registry name or
  /// inline spec (sim/fault_plan.hpp; "eager-flush"/"empty-gate" are
  /// aliases). Exists to prove the oracle catches consistency bugs.
  std::string inject_fault;
  Tick budget = 100'000'000;
  bool operator==(const DiffOptions&) const = default;
};
[[nodiscard]] DiffOptions read_diff(const Table& t);

struct ModelOptions {
  std::vector<std::string> tests;  ///< empty = whole battery
  Flavors flavors{ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl};
  /// The mesh's distance-dependent paths widen the reorder windows.
  Networks networks{core::NetworkKind::kOmega, core::NetworkKind::kMesh};
  std::uint64_t seeds = 16;  ///< schedule seeds per (test x flavor x network)
  std::uint64_t first_seed = 0;
  std::uint32_t nodes = 16;
  /// As for diff: eager-flush removes the CP-Synch gate, so fenced litmus
  /// tests show forbidden outcomes.
  std::string inject_fault;
  /// Buffer depth and directory (each cell's network comes from
  /// `networks`). Backpressure reshuffles timing, not ordering — the
  /// allowed outcome sets are unchanged.
  ref::Fabric fabric;
  bool print_allowed = false;     ///< print the golden tables and exit
  bool require_complete = false;  ///< unhit allowed outcomes fail the run
  Tick budget = 100'000'000;
  bool operator==(const ModelOptions&) const = default;
};
[[nodiscard]] ModelOptions read_model(const Table& t);

struct ChaosOptions {
  /// One plan per fault class, plus a retries-off plan whose cells must
  /// come back *diagnosed* (a lost message with no retransmission is a real
  /// protocol break — the watchdog has to name it).
  std::vector<std::string> plans{"drop", "dup", "delay", "corrupt", "stall", "drop-noretry"};
  Flavors flavors{ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl};
  /// Uniform-cost vs distance-dependent paths stress different reorder
  /// windows (docs/TESTING.md).
  Networks networks{core::NetworkKind::kOmega, core::NetworkKind::kMesh};
  std::uint64_t seeds = 8;  ///< fault/schedule seeds per plan
  std::uint64_t first_seed = 0;
  std::uint64_t programs = 2;  ///< DRF program seeds per point
  std::uint64_t first_program = 0;
  std::uint32_t nodes = 8;
  std::uint32_t phases = 3;
  Tick watchdog_interval = 4096;
  std::uint32_t watchdog_stalls = 3;
  std::size_t trace_dump = 64;
  ref::Fabric fabric;  ///< each cell's network comes from `networks`
  /// Failing (wrong/hung) cells are appended here so the test suite
  /// replays them forever (tests/corpus.txt). Empty = off.
  std::string corpus;
  Tick budget = 50'000'000;
  bool operator==(const ChaosOptions&) const = default;
};
[[nodiscard]] ChaosOptions read_chaos(const Table& t);

/// Receives the cells of a sweep in order; returning false stops it.
using CellVisitor = std::function<bool(const ref::Cell&)>;

/// The oracle cells a `bcsim diff` or `bcsim chaos` invocation sweeps,
/// streamed in sweep order: diff nests program, schedule and flavor; chaos
/// nests plan, network, flavor, fault seed and program, and runs each fault
/// seed under the same schedule seed. False when `visit` stopped the sweep.
bool for_each_cell(const DiffOptions& o, const CellVisitor& visit);
bool for_each_cell(const ChaosOptions& o, const CellVisitor& visit);

/// Replay commands for the failing cells of a sweep, printed from the
/// subcommand's option table so a replay rebuilds the same machine.
class Replay {
 public:
  Replay(std::string command, Table resolved)
      : command_(std::move(command)), resolved_(std::move(resolved)) {}

  /// `bcsim <command>` and, in table order, each option `cell` sets (the
  /// failing cell's coordinates; an empty value drops the option, e.g. a
  /// replay must not re-append to a corpus) or whose resolved value
  /// differs from its default. run/check/trace count only [machine] keys.
  [[nodiscard]] std::string line(const std::vector<Override>& cell) const;

  /// The line that sweeps exactly `cell` with this diff or chaos
  /// invocation's other options.
  [[nodiscard]] std::string line(const ref::Cell& cell) const;

 private:
  std::string command_;
  Table resolved_;
};

/// One line of the regression corpus: `<verdict> <replay command>`, where
/// the command is a `bcsim diff` or `bcsim chaos` line as Replay prints it
/// and every cell it sweeps must end in `verdict`.
struct CorpusEntry {
  ref::Verdict verdict = ref::Verdict::kTransparent;
  std::variant<DiffOptions, ChaosOptions> options;
};

/// Reads one corpus line through parse_command_line and the section
/// reader; nullopt for a blank or '#' comment line. Throws
/// std::invalid_argument for an unknown verdict or command, or a line
/// that loads a config file, and the parser's errors for bad options.
[[nodiscard]] std::optional<CorpusEntry> parse_corpus_line(const std::string& line);

/// Every entry of a corpus file. Throws std::invalid_argument naming
/// `path:line` for a malformed line, std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] std::vector<CorpusEntry> load_corpus(const std::string& path);

}  // namespace bcsim::conf
