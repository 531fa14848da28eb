// `bcsim diff` and `bcsim chaos`: two presets of one sweep over oracle
// cells (ref::Cell). Each subcommand lowers its options into a cell stream
// (conf::for_each_cell); the Sweep below runs that stream against one SC
// reference per program seed and reports every failing cell the same way.
#include "bcsim_tools.hpp"

#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>

namespace bcsim::tool {

namespace {

/// Cells per ref::Verdict.
using Tally = std::array<unsigned long long, 4>;

/// What the two subcommands differ in besides their axes.
struct Preset {
  const char* command;
  /// diff demands a transparent cell; chaos also accepts a diagnosed one.
  bool diagnosed_passes;
  /// diff stops at its first failure; chaos sweeps the whole grid.
  bool stop_at_failure;
  /// Program references kept live: diff's program axis is outermost, so
  /// one suffices; chaos's is innermost, so it keeps its program count.
  std::uint64_t live_programs;
  Tick budget;
  std::string corpus;
};

class Sweep {
 public:
  Sweep(Preset preset, const conf::Replay& replay)
      : p_(std::move(preset)), replay_(replay) {}

  /// Runs one cell of the stream; false when the sweep must stop.
  bool run(const ref::Cell& cell) {
    const ref::Oracle& oracle = oracle_for(cell);
    if (!oracle.drf) {
      std::printf("%s: GENERATOR BUG at program seed %llu\n", p_.command,
                  static_cast<unsigned long long>(cell.program_seed));
      std::printf(
          "  two reference schedules disagree (or deadlock) — the program is "
          "not DRF; fix the generator before trusting any comparison\n");
      ++failures_;
      return false;
    }
    const ref::CellResult r = ref::run_cell(cell, oracle, p_.budget);
    ++tally_[static_cast<std::size_t>(r.verdict)];
    if (r.verdict == ref::Verdict::kTransparent ||
        (r.verdict == ref::Verdict::kDiagnosed && p_.diagnosed_passes)) {
      return true;
    }
    ++failures_;
    report(cell, oracle, r);
    return !p_.stop_at_failure;
  }

  [[nodiscard]] const Tally& tally() const { return tally_; }
  [[nodiscard]] unsigned long long cells() const {
    return tally_[0] + tally_[1] + tally_[2] + tally_[3];
  }
  [[nodiscard]] unsigned long long failures() const { return failures_; }

 private:
  const ref::Oracle& oracle_for(const ref::Cell& cell) {
    for (const auto& [seed, oracle] : oracles_) {
      if (seed == cell.program_seed) return oracle;
    }
    if (oracles_.size() >= p_.live_programs) oracles_.erase(oracles_.begin());
    return oracles_.emplace_back(cell.program_seed, ref::make_oracle(cell)).second;
  }

  void report(const ref::Cell& c, const ref::Oracle& oracle, const ref::CellResult& r) {
    const std::string& detail = r.divergence.detail;
    std::printf("%s: %s cell\n", p_.command, ref::to_string(r.verdict));
    std::printf("  flavor=%s network=%s program_seed=%llu schedule_seed=%llu nodes=%u phases=%u",
                ref::to_string(c.flavor), std::string(core::to_string(c.fabric.network)).c_str(),
                static_cast<unsigned long long>(c.program_seed),
                static_cast<unsigned long long>(c.schedule_seed), c.nodes, c.phases);
    if (!c.plan.empty()) std::printf(" plan=%s", c.plan.c_str());
    if (c.fault_seed) {
      std::printf(" fault_seed=%llu", static_cast<unsigned long long>(*c.fault_seed));
    }
    // A watchdog report's full text already went to stderr.
    std::printf("\n  %s\n", detail.substr(0, detail.find('\n')).c_str());
    const std::string replay = replay_.line(c);
    std::printf("  replay: %s\n", replay.c_str());
    if (!p_.corpus.empty()) {
      std::ofstream out(p_.corpus, std::ios::app);
      if (out << ref::to_string(r.verdict) << ' ' << replay << '\n') {
        std::printf("  recorded in corpus: %s\n", p_.corpus.c_str());
      } else {
        std::fprintf(stderr, "bcsim %s: cannot append to corpus %s\n", p_.command,
                     p_.corpus.c_str());
      }
    }
    if (failures_ > 1) return;
    // The first failure runs again with the event-trace recorder on: the
    // tail of the interleaving that led to it goes to stderr
    // (docs/OBSERVABILITY.md).
    std::printf("  replaying with event tracing enabled...\n");
    std::fflush(stdout);
    core::MachineConfig cfg = ref::cell_config(c);
    cfg.trace = true;
    (void)ref::run_on_machine(oracle.prog, cfg, p_.budget, &std::cerr);
  }

  Preset p_;
  const conf::Replay& replay_;
  std::vector<std::pair<std::uint64_t, ref::Oracle>> oracles_;
  Tally tally_{};
  unsigned long long failures_ = 0;
};

}  // namespace

int run_diff(const conf::DiffOptions& o, const conf::Replay& replay) {
  const std::string flavor_list = join(o.flavors, [](ref::Flavor f) { return ref::to_string(f); });
  std::printf(
      "diff: %llu programs x %llu schedules x {%s}, nodes=%u, phases=%u%s%s\n",
      static_cast<unsigned long long>(o.programs),
      static_cast<unsigned long long>(o.schedules), flavor_list.c_str(), o.nodes,
      o.phases, o.inject_fault.empty() ? "" : ", injected fault: ",
      o.inject_fault.c_str());

  Sweep sweep({"diff", false, true, 1, o.budget, o.corpus}, replay);
  if (!conf::for_each_cell(o, [&](const ref::Cell& c) { return sweep.run(c); })) return 1;
  std::printf("diff: OK (%llu comparisons, every one matched the SC reference)\n",
              sweep.cells());
  return 0;
}

int run_chaos(const conf::ChaosOptions& o, const conf::Replay& replay) {
  const std::string plan_list = join(o.plans, [](const std::string& p) { return p; });
  std::printf("chaos: {%s} x %zu flavors x %zu networks x %llu seeds x %llu programs, "
              "nodes=%u, phases=%u, watchdog=%llu\n",
              plan_list.c_str(), o.flavors.size(), o.networks.size(),
              static_cast<unsigned long long>(o.seeds),
              static_cast<unsigned long long>(o.programs), o.nodes, o.phases,
              static_cast<unsigned long long>(o.watchdog_interval));

  Sweep sweep({"chaos", true, false, o.programs, o.budget, o.corpus}, replay);
  for (const std::string& plan : o.plans) {
    conf::ChaosOptions one = o;
    one.plans = {plan};
    Tally t = sweep.tally();
    if (!conf::for_each_cell(one, [&](const ref::Cell& c) { return sweep.run(c); })) return 1;
    for (std::size_t v = 0; v < t.size(); ++v) t[v] = sweep.tally()[v] - t[v];
    std::printf("chaos: plan %-14s transparent=%llu diagnosed=%llu wrong=%llu hung=%llu\n",
                plan.c_str(), t[0], t[1], t[2], t[3]);
  }

  const Tally& t = sweep.tally();
  std::printf("chaos: %llu cells: %llu transparent, %llu diagnosed, %llu wrong, %llu hung\n",
              sweep.cells(), t[0], t[1], t[2], t[3]);
  if (sweep.failures() != 0) {
    std::printf("chaos: FAIL — %llu cell(s) neither transparent nor diagnosed\n",
                sweep.failures());
    return 1;
  }
  std::printf("chaos: every cell transparent or diagnosed\n");
  return 0;
}

}  // namespace bcsim::tool
