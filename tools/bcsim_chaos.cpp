#include "bcsim_tools.hpp"

#include <cstdio>
#include <fstream>
#include <map>

#include "ref/chaos.hpp"

namespace bcsim::tool {

namespace {

void append_corpus(const conf::ChaosOptions& o, const ref::ChaosCorpusEntry& e) {
  if (o.corpus.empty()) return;
  std::ofstream out(o.corpus, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "bcsim chaos: cannot append to corpus %s\n", o.corpus.c_str());
    return;
  }
  out << ref::format_chaos_corpus_line(e) << '\n';
  std::printf("  recorded in corpus: %s\n", o.corpus.c_str());
}

void print_failure(const ref::ChaosCell& c, const ref::ChaosOutcome& r,
                   const conf::Replay& replay) {
  const std::string network(core::to_string(c.fabric.network));
  std::printf("chaos: %s cell\n", ref::to_string(r.verdict));
  std::printf("  plan=%s fault-seed=%llu flavor=%s network=%s program=%llu nodes=%u phases=%u\n",
              c.plan.c_str(), static_cast<unsigned long long>(c.fault_seed),
              ref::to_string(c.flavor), network.c_str(),
              static_cast<unsigned long long>(c.program_seed), c.nodes, c.phases);
  std::printf("  %s\n", r.detail.c_str());
  std::printf("  replay: %s\n",
              replay
                  .line({{"chaos.plans", c.plan},
                         {"chaos.flavors", ref::to_string(c.flavor)},
                         {"chaos.networks", network},
                         {"chaos.seeds", "1"},
                         {"chaos.first_seed", std::to_string(c.fault_seed)},
                         {"chaos.programs", "1"},
                         {"chaos.first_program", std::to_string(c.program_seed)},
                         {"chaos.corpus", ""}})
                  .c_str());
}

}  // namespace

int run_chaos(const conf::ChaosOptions& o, const conf::Replay& replay) {
  const std::string plan_list = join(o.plans, [](const std::string& p) { return p; });
  std::printf("chaos: {%s} x %zu flavors x %zu networks x %llu seeds x %llu programs, "
              "nodes=%u, phases=%u, watchdog=%llu\n",
              plan_list.c_str(), o.flavors.size(), o.networks.size(),
              static_cast<unsigned long long>(o.seeds),
              static_cast<unsigned long long>(o.programs), o.nodes, o.phases,
              static_cast<unsigned long long>(o.watchdog_interval));

  std::uint64_t cells = 0;
  std::uint64_t bad = 0;
  std::map<ref::ChaosVerdict, std::uint64_t> counts;
  for (const std::string& plan : o.plans) {
    std::map<ref::ChaosVerdict, std::uint64_t> plan_counts;
    for (const core::NetworkKind network : o.networks) {
      for (const ref::Flavor flavor : o.flavors) {
        for (std::uint64_t fs = o.first_seed; fs < o.first_seed + o.seeds; ++fs) {
          for (std::uint64_t ps = o.first_program; ps < o.first_program + o.programs;
               ++ps) {
            ref::ChaosCell cell;
            cell.plan = plan;
            cell.fault_seed = fs;
            cell.flavor = flavor;
            cell.fabric = o.fabric;
            cell.fabric.network = network;
            cell.program_seed = ps;
            // The fault seed doubles as the schedule seed: each lottery
            // pattern also runs under a distinct event interleaving.
            cell.schedule_seed = fs;
            cell.nodes = o.nodes;
            cell.phases = o.phases;
            cell.watchdog_interval = o.watchdog_interval;
            cell.watchdog_stalls = o.watchdog_stalls;
            cell.trace_dump = o.trace_dump;
            const ref::ChaosOutcome r = ref::run_chaos_cell(cell, o.budget);
            ++cells;
            ++plan_counts[r.verdict];
            ++counts[r.verdict];
            if (r.verdict == ref::ChaosVerdict::kWrong ||
                r.verdict == ref::ChaosVerdict::kHung) {
              ++bad;
              print_failure(cell, r, replay);
              append_corpus(o, {cell, r.verdict});
            }
          }
        }
      }
    }
    std::printf("chaos: plan %-14s transparent=%llu diagnosed=%llu wrong=%llu hung=%llu\n",
                plan.c_str(),
                static_cast<unsigned long long>(plan_counts[ref::ChaosVerdict::kTransparent]),
                static_cast<unsigned long long>(plan_counts[ref::ChaosVerdict::kDiagnosed]),
                static_cast<unsigned long long>(plan_counts[ref::ChaosVerdict::kWrong]),
                static_cast<unsigned long long>(plan_counts[ref::ChaosVerdict::kHung]));
  }

  std::printf("chaos: %llu cells: %llu transparent, %llu diagnosed, %llu wrong, %llu hung\n",
              static_cast<unsigned long long>(cells),
              static_cast<unsigned long long>(counts[ref::ChaosVerdict::kTransparent]),
              static_cast<unsigned long long>(counts[ref::ChaosVerdict::kDiagnosed]),
              static_cast<unsigned long long>(counts[ref::ChaosVerdict::kWrong]),
              static_cast<unsigned long long>(counts[ref::ChaosVerdict::kHung]));
  if (bad != 0) {
    std::printf("chaos: FAIL — %llu cell(s) neither transparent nor diagnosed\n",
                static_cast<unsigned long long>(bad));
    return 1;
  }
  std::printf("chaos: every cell transparent or diagnosed\n");
  return 0;
}

}  // namespace bcsim::tool
