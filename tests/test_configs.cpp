// Golden conformance grid over the shipped config library (configs/):
// every *.conf must resolve cleanly under the strict schema, dump/reparse
// to the same table, and — for each run description — produce a stats
// digest bit-identical to the equivalent flag-built run (the flag
// spelling each file documents in its header comment). The CLI-level
// version of the grid (through the real binary) is the
// conf_*_matches_flags ctest battery in tools/CMakeLists.txt.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "conf/conf.hpp"
#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "workload/work_queue_model.hpp"
#include "test_util.hpp"

#ifndef BCSIM_CONFIGS_DIR
#error "BCSIM_CONFIGS_DIR must point at the shipped configs/ directory"
#endif

namespace bcsim {
namespace {

/// Sections owned by the tool subcommands; `bcsim run` ignores them so
/// one preset file serves several entry points (tools/bcsim_cli.cpp).
const std::vector<std::string_view> kToolSections = {"bench", "diff", "model",
                                                     "chaos"};

std::string config_path(const std::string& name) {
  return std::string(BCSIM_CONFIGS_DIR) + "/" + name;
}

conf::Scenario load(const std::string& name) {
  const conf::Table t = conf::parse_file(config_path(name));
  conf::Scenario s = conf::resolve_scenario(t);
  t.expect_all_consumed(kToolSections);
  return s;
}

std::uint64_t run_digest(const conf::Scenario& s) {
  core::Machine m(conf::build_machine(s.machine));
  conf::WorkloadInstance wl(m, s.workload);
  const Tick t = m.run(500'000'000);
  EXPECT_TRUE(m.all_done()) << "programs stuck at tick " << t;
  // The digest covers statistics, not memory: check the work queue's own
  // result too (a lost lock writeback leaves the digest intact).
  if (auto* wq = wl.work_queue()) {
    EXPECT_EQ(wq->tasks_executed(m), wq->total_tasks());
  }
  return m.stats_digest();
}

/// The grid's oracle: the config file and a Scenario assembled in flag
/// vocabulary must run to the same digest.
void expect_matches_flags(const std::string& name, const conf::Scenario& flags) {
  SCOPED_TRACE(name);
  EXPECT_EQ(run_digest(load(name)), run_digest(flags));
}

TEST(ConfigsGrid, BuildMachineRejectsAShardCount) {
  // MachineSpec::shards is a compatibility member, not a knob.
  conf::MachineSpec spec;
  EXPECT_NO_THROW((void)conf::build_machine(spec));
  spec.shards = 2;
  EXPECT_THROW((void)conf::build_machine(spec), std::invalid_argument);
}

TEST(ConfigsGrid, PaperBaselineMatchesFlagRun) {
  // bcsim --nodes 16 --machine paper --workload work-queue --tasks 256 --grain 100
  conf::Scenario flags;  // every field is already the flag default
  expect_matches_flags("paper-baseline.conf", flags);
}

TEST(ConfigsGrid, PaperBaselineExpressionResolves) {
  const conf::Scenario s = load("paper-baseline.conf");
  EXPECT_EQ(s.machine.nodes, 16u);
  EXPECT_EQ(s.workload.work_queue.total_tasks, 256u)
      << "tasks = 16 * $(machine.nodes) must evaluate against the "
         "included base layer";
}

TEST(ConfigsGrid, BoundedMesh1024MatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 1024;
  flags.machine.network = "mesh";
  flags.machine.buffer_depth = 4;
  flags.machine.dir_limit = 8;
  flags.machine.dir_overflow = "coarse";
  flags.machine.dir_region = 32;
  flags.workload.work_queue.total_tasks = 2048;
  flags.workload.work_queue.grain = 20;
  expect_matches_flags("bounded-mesh-1024.conf", flags);
}

TEST(ConfigsGrid, ChaosDropMatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 8;
  flags.machine.fault_plan = "drop:p=0.02;seed=7";
  flags.machine.watchdog = 4096;
  flags.workload.work_queue.total_tasks = 64;
  flags.workload.work_queue.grain = 40;
  expect_matches_flags("chaos-drop.conf", flags);
}

TEST(ConfigsGrid, CiPaperSmokeMatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 8;
  flags.workload.work_queue.total_tasks = 64;
  flags.workload.work_queue.grain = 40;
  expect_matches_flags("ci/paper-smoke.conf", flags);
}

TEST(ConfigsGrid, CiWbiMeshMatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 16;
  flags.machine.flavor = "wbi";
  flags.machine.network = "mesh";
  flags.machine.buffer_depth = 2;
  flags.workload.kind = "sync-model";
  flags.workload.sync_model.tasks_per_proc = 8;
  flags.workload.sync_model.grain = 40;
  expect_matches_flags("ci/wbi-mesh.conf", flags);
}

TEST(ConfigsGrid, CiCblCrossbarSolverMatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 16;
  flags.machine.flavor = "cbl-on-wbi";
  flags.machine.network = "crossbar";
  flags.machine.dir_limit = 4;
  flags.machine.dir_overflow = "coarse";
  flags.machine.dir_region = 4;
  flags.workload.kind = "solver";
  flags.workload.solver.iterations = 4;
  expect_matches_flags("ci/cbl-crossbar-solver.conf", flags);
}

TEST(ConfigsGrid, CiCblBlock32MatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 8;
  flags.machine.block_words = 32;
  flags.workload.work_queue.total_tasks = 64;
  flags.workload.work_queue.grain = 40;
  expect_matches_flags("ci/cbl-block32.conf", flags);
}

TEST(ConfigsGrid, CiReplayMatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 8;
  flags.workload.kind = "sync-model";
  flags.workload.sync_model.tasks_per_proc = 6;
  flags.workload.sync_model.grain = 30;
  expect_matches_flags("ci/replay.conf", flags);
}

TEST(ConfigsGrid, CiChaosSmokeMatchesFlagRun) {
  conf::Scenario flags;
  flags.machine.nodes = 8;
  flags.machine.fault_plan = "drop:p=0.02;seed=7";
  flags.machine.watchdog = 4096;
  flags.workload.work_queue.total_tasks = 64;
  flags.workload.work_queue.grain = 40;
  expect_matches_flags("ci/chaos-smoke.conf", flags);
}

TEST(ConfigsGrid, EveryShippedConfigResolvesStrictly) {
  // A config added to the library without a matching grid entry still
  // must parse, resolve under the strict schema, and dump/reparse to
  // identical typed values.
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const auto& entry : fs::recursive_directory_iterator(BCSIM_CONFIGS_DIR)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".conf") continue;
    ++seen;
    SCOPED_TRACE(entry.path().string());
    const conf::Table t = conf::parse_file(entry.path().string());
    (void)conf::resolve_scenario(t);
    EXPECT_NO_THROW(t.expect_all_consumed(kToolSections));
    std::ostringstream os;
    t.dump(os);
    EXPECT_TRUE(t.same_values(conf::parse_string(os.str())))
        << "dump round-trip changed values; dump was:\n" << os.str();
  }
  EXPECT_GE(seen, 8u) << "the shipped config library went missing?";
}

}  // namespace
}  // namespace bcsim
