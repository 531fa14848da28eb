// The harness subcommands of `bcsim`. Each takes the options its section
// reader resolved (conf/options.hpp) — flags and config keys alike — and
// returns a process exit code.
#pragma once

#include <string>
#include <vector>

#include "conf/options.hpp"

namespace bcsim::tool {

/// The comma-joined spelling of a list option, for header lines.
template <typename T, typename Name>
std::string join(const std::vector<T>& items, Name name) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ',';
    out += name(item);
  }
  return out;
}

// `bcsim bench` — the perf-regression harness (docs/BENCHMARKS.md).
//
// Runs the simulator-substrate microbenchmarks plus one end-to-end
// work-queue run per machine flavor (wbi / cbl / paper) and writes a
// machine-readable BENCH_<rev>.json: ns/op per micro, simulated-ticks/sec
// and messages/sec per flavor, peak RSS, and a stats digest per run that
// pins the simulation output bit-for-bit. scripts/bench_compare.py diffs
// two such files; CI gates on the committed bench/baseline.json. Nonzero
// when a run is nondeterministic or the file cannot be written.
int run_bench(const conf::BenchOptions& o);

// `bcsim diff` — the differential-oracle driver (docs/TESTING.md,
// "Differential testing").
//
// Sweeps a (program_seed x schedule_seed x flavor) grid of oracle cells
// (ref::Cell, lowered by conf::for_each_cell): each program seed yields a
// randomized data-race-free program (ref/drf_program.hpp), executed once on
// the golden sequentially-consistent reference machine and once per cell on
// the full simulator, with --inject-fault armed. A cell passes only when
// transparent. The first other cell — an observed read returning a non-SC
// value, a final-memory or semaphore-count mismatch, a stuck machine — is a
// first-divergence report naming node, op, variable, address, block, and
// tick; it is then replayed with event tracing on and appended to the
// regression corpus as `<verdict> <replay command>`, so the test suite
// replays it forever after. 0 when every cell matched, 1 on the first
// failure.
int run_diff(const conf::DiffOptions& o, const conf::Replay& replay);

// `bcsim model` — the model-conformance driver (docs/TESTING.md,
// "Model conformance").
//
// For every litmus test in the battery (src/model/battery.hpp) it first
// enumerates the axiomatically allowed outcome set, then sweeps the real
// machine over (flavor x network x schedule seed) and checks:
//
//   * soundness — every observed outcome is in the allowed set. A
//     violation reports the test, flavor, network, seed and the first
//     divergent read, prints a one-cell replay command, and replays with
//     event tracing on (the diff-driver reporting recipe);
//   * statistical completeness — per-outcome hit counts across the sweep,
//     with never-observed outcomes flagged (an unhit outcome is expected
//     for the SC flavors on weak tests; --require-complete turns unhit
//     outcomes into a failure for tuned sweeps).
//
// 0 on success, 1 on a soundness violation (or unmet --require-complete),
// 2 on an unknown litmus test.
int run_model(const conf::ModelOptions& o, const conf::Replay& replay);

// `bcsim chaos` — the unreliable-fabric sweep driver (docs/TESTING.md,
// "Chaos testing & liveness").
//
// The same sweep as diff over another grid: fault plans (sim/fault_plan.hpp
// registry names or inline specs) x networks x flavors x fault seeds x
// program seeds, each fault seed doubling as the schedule seed and the
// liveness watchdog armed. A cell passes when transparent (faults masked by
// seq/dedup/retry) or diagnosed (a watchdog/invariant report). A wrong or
// hung cell means a protocol hole: it is reported like a diff failure (the
// first one replayed with tracing) and appended to --corpus, and the sweep
// goes on, printing a verdict tally per plan. 0 when every cell passed, 1
// otherwise.
int run_chaos(const conf::ChaosOptions& o, const conf::Replay& replay);

}  // namespace bcsim::tool
