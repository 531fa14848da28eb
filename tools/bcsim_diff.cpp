#include "bcsim_tools.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "ref/ref_machine.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::tool {

namespace {

/// Appends one replay line to the regression corpus. Format (one case per
/// line, '#' comments): `<flavor> <program_seed> <schedule_seed> <nodes>
/// <phases> [fault]` — tests/test_diff.cpp replays every line.
void append_corpus(const conf::DiffOptions& o, ref::Flavor flavor,
                   std::uint64_t program_seed, std::uint64_t schedule_seed) {
  if (o.corpus.empty()) return;
  std::ofstream out(o.corpus, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "bcsim diff: cannot append to corpus %s\n", o.corpus.c_str());
    return;
  }
  out << ref::to_string(flavor) << ' ' << program_seed << ' ' << schedule_seed << ' '
      << o.nodes << ' ' << o.phases << ' ' << core::to_string(o.fabric.network);
  if (!o.inject_fault.empty()) out << ' ' << o.inject_fault;
  out << '\n';
  std::printf("  recorded in corpus: %s\n", o.corpus.c_str());
}

}  // namespace

int run_diff(const conf::DiffOptions& o, const conf::Replay& replay) {
  // --inject-fault goes through the fault-plan registry (sim/fault_plan.hpp):
  // the historical eager-flush/empty-gate names are registry aliases, and any
  // other name or inline spec (e.g. 'drop:p=0.05') works too.
  const sim::FaultPlan plan =
      o.inject_fault.empty() ? sim::FaultPlan{} : sim::resolve_fault_plan(o.inject_fault);
  ref::DrfGenConfig gen;
  gen.n_nodes = o.nodes;
  gen.phases = o.phases;

  const std::string flavor_list = join(o.flavors, [](ref::Flavor f) { return ref::to_string(f); });
  std::printf(
      "diff: %llu programs x %llu schedules x {%s}, nodes=%u, phases=%u%s%s\n",
      static_cast<unsigned long long>(o.programs),
      static_cast<unsigned long long>(o.schedules), flavor_list.c_str(), o.nodes,
      o.phases, o.inject_fault.empty() ? "" : ", injected fault: ",
      o.inject_fault.c_str());

  std::uint64_t cells = 0;
  for (std::uint64_t ps = o.first_program; ps < o.first_program + o.programs; ++ps) {
    const ref::DrfProgram prog = ref::generate_drf_program(ps, gen);

    // Ground truth — and a generator self-check: a DRF program's
    // comparison stream must not depend on the reference schedule.
    const ref::RefResult ref1 = ref::RefMachine(prog, 1).run();
    const ref::RefResult ref2 = ref::RefMachine(prog, 0x9e3779b97f4a7c15ULL).run();
    if (ref1.deadlocked || !ref::ref_results_agree(ref1, ref2)) {
      std::printf("diff: GENERATOR BUG at program seed %llu\n",
                  static_cast<unsigned long long>(ps));
      std::printf(
          "  two reference schedules disagree (or deadlock) — the program is "
          "not DRF; fix the generator before trusting any comparison\n");
      return 1;
    }

    for (std::uint64_t ss = o.first_schedule; ss < o.first_schedule + o.schedules;
         ++ss) {
      for (const ref::Flavor flavor : o.flavors) {
        core::MachineConfig cfg =
            ref::cell_machine_config(flavor, prog.gen.n_nodes, ss, o.fabric, plan);
        const ref::Divergence d = ref::diff_one(prog, ref1, flavor, ss, &cfg, o.budget);
        ++cells;
        if (!d.found()) continue;

        std::printf("diff: DIVERGENCE\n");
        std::printf("  flavor=%s program_seed=%llu schedule_seed=%llu nodes=%u\n",
                    ref::to_string(flavor), static_cast<unsigned long long>(ps),
                    static_cast<unsigned long long>(ss), o.nodes);
        std::printf("  %s\n", d.detail.c_str());
        std::printf("  replay: %s\n",
                    replay
                        .line({{"diff.flavors", ref::to_string(flavor)},
                               {"diff.programs", "1"},
                               {"diff.first_program", std::to_string(ps)},
                               {"diff.schedules", "1"},
                               {"diff.first_schedule", std::to_string(ss)},
                               {"diff.corpus", ""}})
                        .c_str());
        append_corpus(o, flavor, ps, ss);

        // Replay with the event-trace recorder on: the tail of the
        // interleaving that led to the divergence goes to stderr
        // (docs/OBSERVABILITY.md).
        std::printf("  replaying with event tracing enabled...\n");
        std::fflush(stdout);
        cfg.trace = true;
        (void)ref::run_on_machine(prog, cfg, o.budget, &std::cerr);
        return 1;
      }
    }
  }
  std::printf("diff: OK (%llu comparisons, every one matched the SC reference)\n",
              static_cast<unsigned long long>(cells));
  return 0;
}

}  // namespace bcsim::tool
