#include "bcsim_tools.hpp"

#include <cstdio>
#include <iostream>
#include <map>

#include "model/battery.hpp"
#include "model/bc_model.hpp"
#include "model/litmus_runner.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::tool {

namespace {

void print_violation(const model::LitmusTest& t,
                     const std::vector<model::Outcome>& allowed,
                     const model::LitmusRunResult& run, ref::Flavor flavor,
                     core::NetworkKind network, std::uint64_t seed,
                     const conf::Replay& replay) {
  std::printf("model: SOUNDNESS VIOLATION\n");
  std::printf("  litmus=%s flavor=%s network=%s schedule_seed=%llu\n",
              t.name.c_str(), ref::to_string(flavor), core::to_string(network).data(),
              static_cast<unsigned long long>(seed));
  if (!run.error.empty()) {
    std::printf("  machine error: %s\n", run.error.c_str());
  } else {
    const int div = model::first_divergence(allowed, run.outcome);
    std::printf("  observed: %s\n",
                model::render_outcome(t, run.outcome).c_str());
    if (div >= 0 && static_cast<std::size_t>(div) < run.loads.size()) {
      const model::LitmusLoad& l = run.loads[static_cast<std::size_t>(div)];
      std::printf(
          "  first divergent read: %s = %llu at tick %llu — no allowed "
          "outcome matches the observed loads up to this point\n",
          model::load_label(t, static_cast<std::size_t>(div)).c_str(),
          static_cast<unsigned long long>(l.value),
          static_cast<unsigned long long>(l.tick));
    } else {
      std::printf(
          "  every observed load prefix is allowed; the final memory state "
          "matches no allowed outcome with these loads\n");
    }
  }
  std::printf("  replay: %s\n",
              replay
                  .line({{"model.tests", t.name},
                         {"model.flavors", ref::to_string(flavor)},
                         {"model.networks", std::string(core::to_string(network))},
                         {"model.seeds", "1"},
                         {"model.first_seed", std::to_string(seed)}})
                  .c_str());
}

}  // namespace

int run_model(const conf::ModelOptions& o, const conf::Replay& replay) {
  // --inject-fault goes through the fault-plan registry (sim/fault_plan.hpp),
  // as for `bcsim diff`.
  const sim::FaultPlan plan =
      o.inject_fault.empty() ? sim::FaultPlan{} : sim::resolve_fault_plan(o.inject_fault);

  const std::vector<model::LitmusTest> battery = model::litmus_battery();
  std::vector<const model::LitmusTest*> selected;
  if (o.tests.empty()) {
    for (const auto& t : battery) selected.push_back(&t);
  } else {
    for (const std::string& name : o.tests) {
      const model::LitmusTest* t = model::find_litmus(battery, name);
      if (t == nullptr) {
        std::fprintf(stderr, "bcsim model: unknown litmus test '%s'\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(t);
    }
  }

  if (o.print_allowed) {
    for (const model::LitmusTest* t : selected) {
      std::fputs(model::render_allowed(*t, model::enumerate_allowed(*t)).c_str(),
                 stdout);
    }
    return 0;
  }

  const std::string flavor_list = join(o.flavors, [](ref::Flavor f) { return ref::to_string(f); });
  const std::string network_list =
      join(o.networks, [](core::NetworkKind n) { return core::to_string(n); });
  std::printf("model: %zu litmus tests x {%s} x {%s} x %llu seeds, nodes=%u%s%s\n",
              selected.size(), flavor_list.c_str(), network_list.c_str(),
              static_cast<unsigned long long>(o.seeds), o.nodes,
              o.inject_fault.empty() ? "" : ", injected fault: ",
              o.inject_fault.c_str());

  std::uint64_t cells = 0;
  bool incomplete = false;
  for (const model::LitmusTest* t : selected) {
    const std::vector<model::Outcome> allowed = model::enumerate_allowed(*t);
    std::map<model::Outcome, std::uint64_t> hits;
    ref::Fabric fabric = o.fabric;
    for (const core::NetworkKind network : o.networks) {
      fabric.network = network;
      for (const ref::Flavor flavor : o.flavors) {
        for (std::uint64_t s = o.first_seed; s < o.first_seed + o.seeds; ++s) {
          core::MachineConfig cfg = ref::cell_machine_config(flavor, o.nodes, s, fabric, plan);
          const model::LitmusRunResult run = model::run_litmus(*t, cfg, o.budget);
          ++cells;
          if (!run.error.empty() ||
              !model::outcome_allowed(allowed, run.outcome)) {
            print_violation(*t, allowed, run, flavor, network, s, replay);
            // Replay with the event-trace recorder on: the tail of the
            // interleaving goes to stderr (docs/OBSERVABILITY.md).
            std::printf("  replaying with event tracing enabled...\n");
            std::fflush(stdout);
            cfg.trace = true;
            (void)model::run_litmus(*t, cfg, o.budget, &std::cerr);
            return 1;
          }
          ++hits[run.outcome];
        }
      }
    }
    std::size_t hit = 0;
    for (const model::Outcome& a : allowed) {
      if (hits.contains(a)) ++hit;
    }
    std::printf("  %-16s sound; %zu/%zu allowed outcomes observed\n",
                t->name.c_str(), hit, allowed.size());
    for (const model::Outcome& a : allowed) {
      const auto it = hits.find(a);
      const std::uint64_t n = it == hits.end() ? 0 : it->second;
      std::printf("    %8llu  %s%s\n", static_cast<unsigned long long>(n),
                  model::render_outcome(*t, a).c_str(),
                  n == 0 ? "   [unhit]" : "");
      if (n == 0) incomplete = true;
    }
  }
  if (o.require_complete && incomplete) {
    std::printf(
        "model: INCOMPLETE — allowed outcomes above are marked [unhit]; "
        "raise --seeds or drop --require-complete\n");
    return 1;
  }
  std::printf("model: OK (%llu runs, every observed outcome was allowed)\n",
              static_cast<unsigned long long>(cells));
  return 0;
}

}  // namespace bcsim::tool
