// Differential-oracle tests (docs/TESTING.md, "Differential testing"):
// the DRF generator's structural guarantees, the golden SC reference
// machine's schedule-independence, clean diff cells on every flavor, the
// oracle's ability to catch both a tampered result and a deliberately
// injected write-buffer bug, and a replay of tests/corpus.txt — every cell
// `bcsim diff` or `bcsim chaos` ever recorded keeps its verdict forever.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "conf/options.hpp"
#include "ref/diff.hpp"
#include "ref/drf_program.hpp"
#include "ref/machine_runner.hpp"
#include "ref/ref_machine.hpp"

namespace bcsim {
namespace {

using ref::DrfGenConfig;
using ref::DrfOp;
using ref::DrfProgram;
using ref::OpKind;

DrfGenConfig small_gen() {
  DrfGenConfig g;
  g.n_nodes = 4;
  g.phases = 2;
  return g;
}

// ---------------------------------------------------------------------------
// Generator structure: the DRF guarantees the oracle's soundness rests on.
// ---------------------------------------------------------------------------

TEST(DrfGenerator, IsDeterministic) {
  const DrfProgram a = ref::generate_drf_program(7, small_gen());
  const DrfProgram b = ref::generate_drf_program(7, small_gen());
  ASSERT_EQ(a.n_vars, b.n_vars);
  ASSERT_EQ(a.code.size(), b.code.size());
  for (std::size_t n = 0; n < a.code.size(); ++n) {
    ASSERT_EQ(a.code[n].size(), b.code[n].size()) << "node " << n;
    for (std::size_t i = 0; i < a.code[n].size(); ++i) {
      EXPECT_EQ(a.code[n][i].kind, b.code[n][i].kind);
      EXPECT_EQ(a.code[n][i].id, b.code[n][i].id);
      EXPECT_EQ(a.code[n][i].value, b.code[n][i].value);
      EXPECT_EQ(a.code[n][i].observed, b.code[n][i].observed);
    }
  }
}

TEST(DrfGenerator, DistinctSeedsDiffer) {
  const DrfProgram a = ref::generate_drf_program(1, small_gen());
  const DrfProgram b = ref::generate_drf_program(2, small_gen());
  bool differ = a.ops_total() != b.ops_total();
  for (std::size_t n = 0; !differ && n < a.code.size(); ++n) {
    for (std::size_t i = 0; !differ && i < std::min(a.code[n].size(), b.code[n].size());
         ++i) {
      differ = a.code[n][i].kind != b.code[n][i].kind ||
               a.code[n][i].id != b.code[n][i].id ||
               a.code[n][i].value != b.code[n][i].value;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(DrfGenerator, LocksBalanceAndGuardCounters) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const DrfProgram prog = ref::generate_drf_program(seed, small_gen());
    for (std::uint32_t n = 0; n < prog.gen.n_nodes; ++n) {
      int held = -1;  // -1 = none (generator never nests locks)
      for (const DrfOp& op : prog.code[n]) {
        switch (op.kind) {
          case OpKind::kLock:
            ASSERT_EQ(held, -1) << "seed " << seed << " node " << n << " nests locks";
            held = static_cast<int>(op.id);
            break;
          case OpKind::kUnlock:
            ASSERT_EQ(held, static_cast<int>(op.id));
            held = -1;
            break;
          case OpKind::kCsAdd:
            ASSERT_GE(held, 0) << "CsAdd outside a critical section";
            ASSERT_EQ(static_cast<std::uint32_t>(held), prog.counter_lock[op.id])
                << "CsAdd under the wrong lock";
            break;
          default:
            break;
        }
      }
      ASSERT_EQ(held, -1) << "lock leaked at program end";
    }
  }
}

TEST(DrfGenerator, SingleStaticWriterPerVariable) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const DrfProgram prog = ref::generate_drf_program(seed, small_gen());
    // kWrite targets (region + handoff words) must have exactly one
    // writing node; counters are only touched via lock-guarded kCsAdd.
    std::vector<int> writer(prog.n_vars, -1);
    for (std::uint32_t n = 0; n < prog.gen.n_nodes; ++n) {
      for (const DrfOp& op : prog.code[n]) {
        if (op.kind == OpKind::kWrite) {
          ASSERT_TRUE(writer[op.id] == -1 || writer[op.id] == static_cast<int>(n))
              << "var " << op.id << " written by nodes " << writer[op.id] << " and "
              << n << " (seed " << seed << ")";
          writer[op.id] = static_cast<int>(n);
          ASSERT_GE(op.id, prog.n_counters) << "plain write to a lock-guarded counter";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The golden reference: SC interpretation, schedule-independent streams.
// ---------------------------------------------------------------------------

TEST(RefMachine, ScheduleSeedsAgreeOnDrfPrograms) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const DrfProgram prog = ref::generate_drf_program(seed, small_gen());
    const ref::RefResult a = ref::RefMachine(prog, 11).run();
    const ref::RefResult b = ref::RefMachine(prog, 0xfeedfaceULL).run();
    EXPECT_FALSE(a.deadlocked) << "seed " << seed;
    EXPECT_TRUE(a.locks_held_at_end.empty());
    EXPECT_TRUE(ref::ref_results_agree(a, b))
        << "reference streams depend on the schedule (seed " << seed
        << ") — the generator emitted a racy program";
  }
}

TEST(RefMachine, CounterSumsMatchTheEmittedDeltas) {
  const DrfProgram prog = ref::generate_drf_program(3, small_gen());
  std::vector<Word> want(prog.n_counters, 0);
  for (const auto& code : prog.code) {
    for (const DrfOp& op : code) {
      if (op.kind == OpKind::kCsAdd) want[op.id] += op.value;
    }
  }
  const ref::RefResult r = ref::RefMachine(prog, 5).run();
  for (std::uint32_t c = 0; c < prog.n_counters; ++c) {
    EXPECT_EQ(r.final_vars[c], want[c]) << "counter " << c;
  }
}

// ---------------------------------------------------------------------------
// The oracle end to end: clean cells, tampering, injected faults.
// ---------------------------------------------------------------------------

TEST(Diff, AllFlavorsMatchTheReference) {
  const DrfProgram prog = ref::generate_drf_program(1, small_gen());
  const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
  for (const ref::Flavor f :
       {ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl}) {
    const ref::Divergence d = ref::diff_one(prog, ref_run, f, 0);
    EXPECT_FALSE(d.found()) << ref::to_string(f) << ": " << d.detail;
  }
}

TEST(Diff, CatchesATamperedObservation) {
  const DrfProgram prog = ref::generate_drf_program(2, small_gen());
  const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
  const auto cfg = ref::flavor_config(ref::Flavor::kWbi, prog.gen.n_nodes, 0);
  ref::MachineRunResult mach = ref::run_on_machine(prog, cfg);
  ASSERT_TRUE(mach.completed) << mach.error;

  // Find a node with at least one observation and corrupt it.
  for (std::uint32_t n = 0; n < prog.gen.n_nodes; ++n) {
    if (mach.obs[n].empty()) continue;
    mach.obs[n].front().value ^= 0x1;
    const ref::Divergence d = ref::compare_runs(prog, ref_run, mach, cfg.block_words);
    ASSERT_TRUE(d.found());
    EXPECT_EQ(d.kind, ref::Divergence::Kind::kObsRead);
    EXPECT_EQ(d.node, n);
    EXPECT_NE(d.detail.find("block"), std::string::npos) << d.detail;
    EXPECT_NE(d.detail.find("tick"), std::string::npos) << d.detail;
    return;
  }
  FAIL() << "no observations to tamper with";
}

TEST(Diff, CatchesATamperedFinalVariable) {
  const DrfProgram prog = ref::generate_drf_program(2, small_gen());
  const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
  const auto cfg = ref::flavor_config(ref::Flavor::kCbl, prog.gen.n_nodes, 0);
  ref::MachineRunResult mach = ref::run_on_machine(prog, cfg);
  ASSERT_TRUE(mach.completed) << mach.error;
  mach.final_vars.back() += 1;
  const ref::Divergence d = ref::compare_runs(prog, ref_run, mach, cfg.block_words);
  ASSERT_TRUE(d.found());
  EXPECT_EQ(d.kind, ref::Divergence::Kind::kFinalVar);
}

// The acceptance demonstration, pinned as a unit test: removing the
// CP-Synch flush gate (WbFault::kEagerFlush) on the buffered-consistency
// machine must produce a divergence whose report names a block and tick.
// The mesh's distance-dependent paths are what let the un-flushed write
// lose the race (docs/TESTING.md).
TEST(Diff, CatchesTheEagerFlushFault) {
  DrfGenConfig gen;
  gen.n_nodes = 16;
  gen.phases = 3;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 4 && !caught; ++seed) {
    const DrfProgram prog = ref::generate_drf_program(seed, gen);
    const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
    for (std::uint64_t ss = 0; ss < 2 && !caught; ++ss) {
      core::MachineConfig cfg = ref::flavor_config(ref::Flavor::kRu, gen.n_nodes, ss);
      cfg.network = core::NetworkKind::kMesh;
      cfg.wb_fault = core::WbFault::kEagerFlush;
      const ref::Divergence d = ref::diff_one(prog, ref_run, ref::Flavor::kRu, ss, &cfg);
      if (!d.found()) continue;
      caught = true;
      EXPECT_NE(d.detail.find("block"), std::string::npos) << d.detail;
      EXPECT_NE(d.detail.find("tick"), std::string::npos) << d.detail;
    }
  }
  EXPECT_TRUE(caught)
      << "the injected eager-flush reordering bug escaped a 4x2 diff grid";
}

// The same grid without the fault stays clean — the fault test above is
// meaningful only if the healthy machine passes the identical cells.
TEST(Diff, MeshGridIsCleanWithoutTheFault) {
  DrfGenConfig gen;
  gen.n_nodes = 16;
  gen.phases = 3;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const DrfProgram prog = ref::generate_drf_program(seed, gen);
    const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
    core::MachineConfig cfg = ref::flavor_config(ref::Flavor::kRu, gen.n_nodes, 0);
    cfg.network = core::NetworkKind::kMesh;
    const ref::Divergence d = ref::diff_one(prog, ref_run, ref::Flavor::kRu, 0, &cfg);
    EXPECT_FALSE(d.found()) << d.detail;
  }
}

// ---------------------------------------------------------------------------
// The corpus: `<verdict> <replay command>` lines, read by the CLI's parser.
// ---------------------------------------------------------------------------

TEST(Corpus, EveryEntryReplaysToItsVerdict) {
  const auto corpus = conf::load_corpus(BCSIM_CORPUS);
  ASSERT_FALSE(corpus.empty());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const conf::CorpusEntry& e = corpus[i];
    std::visit(
        [&](const auto& o) {
          (void)conf::for_each_cell(o, [&](const ref::Cell& c) {
            const auto r = ref::run_cell(c, ref::make_oracle(c), o.budget);
            EXPECT_EQ(r.verdict, e.verdict)
                << "corpus entry " << i << " (" << ref::to_string(c.flavor) << " program "
                << c.program_seed << " schedule " << c.schedule_seed << " plan '" << c.plan
                << "') -> " << ref::to_string(r.verdict) << ": " << r.divergence.detail;
            return true;
          });
        },
        e.options);
  }
}

TEST(Corpus, ParserRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/corpus_case.txt";
  // The error text, or "" when the line loads.
  const auto load = [&](const std::string& line) -> std::string {
    std::ofstream(path) << "# header\n" << line << '\n';
    try {
      (void)conf::load_corpus(path);
      return "";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  };
  EXPECT_EQ(load("transparent bcsim diff --flavors cbl --first-program 3 --network mesh"), "");
  EXPECT_EQ(load("wrong bcsim diff --flavors ru --inject-fault eager-flush --dir-limit 2"), "");
  EXPECT_EQ(load("diagnosed bcsim chaos --plans drop-noretry --networks omega"), "");
  for (const char* bad : {
           "transparent bcsim diff --flavors",                        // missing value
           "transparent bcsim",                                       // missing command
           "transparent bcsim diff --flavors sc",                     // unknown flavor
           "transparent bcsim diff --network toroid",                 // unknown network
           "transparent bcsim diff --inject-fault lazy-flush",        // unknown fault
           "transparent bcsim chaos --plans lazy-flush",              // unknown fault
           "transparent bcsim diff --first-program x",                // non-numeric seed
           "transparent bcsim diff --inject-fault eager-flush junk",  // trailing junk
           "transparent bcsim diff --nodes 0",                        // zero nodes
           "fixed bcsim diff --nodes 16",                             // unknown verdict
           "transparent bcsim model --seeds 1",                       // not an oracle cell
           "transparent bcsim diff --config base.conf",               // not self-contained
       }) {
    EXPECT_EQ(load(bad).rfind(path + ":2: ", 0), 0u) << bad << " -> '" << load(bad) << "'";
  }
}

/// Reads a corpus line back: it must carry `verdict` and sweep exactly
/// `cell`. Returns the options it read.
template <typename Options>
Options read_back(const std::string& line, ref::Verdict verdict, const ref::Cell& cell) {
  const auto e = conf::parse_corpus_line(line);
  EXPECT_TRUE(e.has_value()) << line;
  if (!e) return {};
  EXPECT_EQ(e->verdict, verdict) << line;
  const Options o = std::get<Options>(e->options);
  std::vector<ref::Cell> cells;
  (void)conf::for_each_cell(o, [&](const ref::Cell& c) {
    cells.push_back(c);
    return true;
  });
  EXPECT_TRUE(cells == std::vector<ref::Cell>{cell}) << line;
  return o;
}

// A corpus line is the verdict plus the replay line, so it names the
// failing cell's whole machine: here the limited-pointer directory.
TEST(Corpus, FailingDiffCellReadsBackWithItsDirectory) {
  const conf::CommandLine cl = conf::parse_command_line(
      "diff", {"--flavors", "ru", "--programs", "4", "--schedules", "2", "--nodes", "16",
               "--network", "mesh", "--dir-limit", "2", "--dir-overflow", "coarse",
               "--inject-fault", "eager-flush"});
  const conf::DiffOptions o = conf::read_diff(cl.table);
  std::optional<ref::Cell> failing;
  ref::Verdict verdict = ref::Verdict::kTransparent;
  (void)conf::for_each_cell(o, [&](const ref::Cell& c) {
    verdict = ref::run_cell(c, ref::make_oracle(c), o.budget).verdict;
    if (verdict != ref::Verdict::kTransparent) failing = c;
    return !failing;
  });
  ASSERT_TRUE(failing) << "eager-flush escaped the grid";
  const std::string line =
      std::string(ref::to_string(verdict)) + " " + conf::Replay("diff", cl.table).line(*failing);
  EXPECT_NE(line.find("--dir-limit 2 --dir-overflow coarse"), std::string::npos) << line;

  conf::DiffOptions want = o;
  want.flavors = {failing->flavor};
  want.programs = 1;
  want.first_program = failing->program_seed;
  want.schedules = 1;
  want.first_schedule = failing->schedule_seed;
  EXPECT_TRUE(read_back<conf::DiffOptions>(line, verdict, *failing) == want) << line;
}

TEST(Corpus, ChaosCellReadsBackWithItsBufferDepth) {
  const conf::CommandLine cl = conf::parse_command_line(
      "chaos", {"--plans", "drop", "--seeds", "2", "--programs", "1", "--nodes", "8",
                "--buffer-depth", "1"});
  const conf::ChaosOptions o = conf::read_chaos(cl.table);
  std::optional<ref::Cell> cell;
  (void)conf::for_each_cell(o, [&](const ref::Cell& c) {
    if (c.fabric.network == core::NetworkKind::kMesh && c.schedule_seed == 1) cell = c;
    return !cell;
  });
  ASSERT_TRUE(cell);
  const ref::Verdict verdict = ref::run_cell(*cell, ref::make_oracle(*cell), o.budget).verdict;
  const std::string line =
      std::string(ref::to_string(verdict)) + " " + conf::Replay("chaos", cl.table).line(*cell);
  EXPECT_NE(line.find("--buffer-depth 1"), std::string::npos) << line;

  conf::ChaosOptions want = o;
  want.plans = {cell->plan};
  want.flavors = {cell->flavor};
  want.networks = {cell->fabric.network};
  want.seeds = 1;
  want.first_seed = cell->schedule_seed;
  EXPECT_TRUE(read_back<conf::ChaosOptions>(line, verdict, *cell) == want) << line;
}

}  // namespace
}  // namespace bcsim
