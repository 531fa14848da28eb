// Parser battery for the declarative config format (src/conf, docs/CONFIGS.md):
// layering and override precedence, expression evaluation, strict-schema
// rejection of malformed input — every failure a ConfError naming the
// offending file:line — and the dump round-trip property. The CLI-level
// contract (every config error exits 2) is pinned by the conf_rejects_*
// ctest entries in tools/CMakeLists.txt.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "conf/conf.hpp"
#include "conf/options.hpp"
#include "conf/scenario.hpp"

namespace bcsim::conf {
namespace {

/// Runs `fn`, requires it to throw ConfError, and checks the message
/// contains every fragment (typically a "file:line" and the complaint).
template <typename Fn>
void expect_conf_error(Fn&& fn, std::initializer_list<std::string_view> fragments) {
  try {
    fn();
    FAIL() << "expected ConfError";
  } catch (const ConfError& e) {
    const std::string msg = e.what();
    for (const auto f : fragments) {
      EXPECT_NE(msg.find(f), std::string::npos)
          << "expected '" << f << "' in: " << msg;
    }
  }
}

/// Writes `text` to `dir/name` and returns the full path.
std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& text) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

// ---------------------------------------------------------------------------
// Layering: later assignment wins; $(ref) is an eager macro.
// ---------------------------------------------------------------------------

TEST(ConfLayering, LaterAssignmentWins) {
  const Table t = parse_string("[a]\nx = 1\nx = 2\n");
  EXPECT_EQ(t.get_int("a.x", 0), 2);
}

TEST(ConfLayering, ReferencesSeeTheValueAtAssignmentTime) {
  // Eager macro semantics (SESC): y captured x = 2; reassigning x later
  // does not rewrite y.
  const Table t = parse_string("[a]\nx = 2\ny = $(x) * 10\nx = 3\n");
  EXPECT_EQ(t.get_int("a.x", 0), 3);
  EXPECT_EQ(t.get_int("a.y", 0), 20);
}

TEST(ConfLayering, BareReferencesResolveCurrentSectionFirst) {
  const Table t = parse_string(
      "n = 5\n[machine]\nn = 7\nx = $(n)\n[workload]\ny = $(n)\n");
  EXPECT_EQ(t.get_int("machine.x", 0), 7);  // [machine].n shadows global n
  EXPECT_EQ(t.get_int("workload.y", 0), 5); // falls back to the global
}

TEST(ConfLayering, CrossSectionReference) {
  const Table t = parse_string(
      "[machine]\nnodes = 16\n[workload]\ntasks = 16 * $(machine.nodes)\n");
  EXPECT_EQ(t.get_int("workload.tasks", 0), 256);
}

TEST(ConfLayering, IncludeLayersLaterFileOverBase) {
  const std::string dir = ::testing::TempDir();
  write_file(dir, "layer_base.conf", "[m]\nx = 1\ny = 2\n");
  const std::string top = write_file(
      dir, "layer_top.conf", "include \"layer_base.conf\"\n[m]\ny = 3\n");
  const Table t = parse_file(top);
  EXPECT_EQ(t.get_int("m.x", 0), 1);
  EXPECT_EQ(t.get_int("m.y", 0), 3);
}

TEST(ConfLayering, OverridesApplyAfterEveryFile) {
  const Table t =
      parse_string("[a]\nx = 1\n", {{"a.x", "5"}, {"a.y", "$(a.x) + 1"}});
  EXPECT_EQ(t.get_int("a.x", 0), 5);
  EXPECT_EQ(t.get_int("a.y", 0), 6);  // override expressions see prior overrides
}

TEST(ConfLayering, ParseOverrideSplitsAtFirstEquals) {
  const Override o = parse_override("workload.source=trace:a=b.tr");
  EXPECT_EQ(o.key, "workload.source");
  EXPECT_EQ(o.value, "trace:a=b.tr");
  EXPECT_THROW((void)parse_override("no-equals"), std::invalid_argument);
  EXPECT_THROW((void)parse_override("=value"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Expression evaluation.
// ---------------------------------------------------------------------------

TEST(ConfExpr, ArithmeticPrecedenceAndParentheses) {
  const Table t = parse_string(
      "[e]\na = 2 + 3 * 4\nb = (2 + 3) * 4\nc = 10 / 4\nd = 10 % 4\n"
      "e = -7 + 1\nf = 0x10\n");
  EXPECT_EQ(t.get_int("e.a", 0), 14);
  EXPECT_EQ(t.get_int("e.b", 0), 20);
  EXPECT_EQ(t.get_int("e.c", 0), 2);
  EXPECT_EQ(t.get_int("e.d", 0), 2);
  EXPECT_EQ(t.get_int("e.e", 0), -6);
  EXPECT_EQ(t.get_int("e.f", 0), 16);
}

TEST(ConfExpr, BooleansAndComparisons) {
  const Table t = parse_string(
      "[e]\na = true\nb = !false\nc = 3 < 4\nd = 2 + 2 == 4\n"
      "e = true && false\nf = true || false\ng = \"mesh\" == \"omega\"\n");
  EXPECT_TRUE(t.get_bool("e.a", false));
  EXPECT_TRUE(t.get_bool("e.b", false));
  EXPECT_TRUE(t.get_bool("e.c", false));
  EXPECT_TRUE(t.get_bool("e.d", false));
  EXPECT_FALSE(t.get_bool("e.e", true));
  EXPECT_TRUE(t.get_bool("e.f", false));
  EXPECT_FALSE(t.get_bool("e.g", true));
}

TEST(ConfExpr, BareWordsAreStringLiterals) {
  // Enum names, mnemonics, fault-plan specs, and paths need no quotes.
  const Table t = parse_string(
      "[s]\nkind = work-queue\nsource = trace:runs/foo.tr\n"
      "plan = drop:p=0.05;seed=3\nquoted = \"two words\"\n");
  EXPECT_EQ(t.get_string("s.kind", ""), "work-queue");
  EXPECT_EQ(t.get_string("s.source", ""), "trace:runs/foo.tr");
  EXPECT_EQ(t.get_string("s.plan", ""), "drop:p=0.05;seed=3");
  EXPECT_EQ(t.get_string("s.quoted", ""), "two words");
}

TEST(ConfExpr, CommentsStripOutsideQuotes) {
  const Table t = parse_string(
      "# full-line comment\n[s]\nx = 1 + 1  # trailing comment\n"
      "y = \"has # inside\"\n\n");
  EXPECT_EQ(t.get_int("s.x", 0), 2);
  EXPECT_EQ(t.get_string("s.y", ""), "has # inside");
}

// ---------------------------------------------------------------------------
// Malformed input: every rejection is a ConfError naming file:line.
// ---------------------------------------------------------------------------

TEST(ConfErrors, DivisionByZero) {
  expect_conf_error([] { (void)parse_string("[e]\nx = 1 / 0\n"); },
                    {"<string>:2", "division by zero"});
}

TEST(ConfErrors, IntegerOverflow) {
  expect_conf_error(
      [] { (void)parse_string("[e]\nx = 9223372036854775807 + 1\n"); },
      {"<string>:2", "overflow"});
}

TEST(ConfErrors, UndefinedReference) {
  expect_conf_error([] { (void)parse_string("[e]\nx = $(no.such.key)\n"); },
                    {"<string>:2", "$(no.such.key)", "not defined"});
}

TEST(ConfErrors, TrailingTextAfterExpression) {
  expect_conf_error([] { (void)parse_string("[e]\nx = 1 2\n"); },
                    {"<string>:2", "trailing text"});
}

TEST(ConfErrors, UnknownWordInExpression) {
  expect_conf_error([] { (void)parse_string("[e]\nx = mesh + 1\n"); },
                    {"<string>:2", "unknown word 'mesh'"});
}

TEST(ConfErrors, TypeMismatchInOperator) {
  expect_conf_error([] { (void)parse_string("[e]\nx = true + 1\n"); },
                    {"<string>:2", "'+' needs integer operands"});
}

TEST(ConfErrors, MalformedSectionHeader) {
  expect_conf_error([] { (void)parse_string("[machine\nnodes = 4\n"); },
                    {"<string>:1", "section"});
}

TEST(ConfErrors, InvalidKeyName) {
  expect_conf_error([] { (void)parse_string("[m]\n1bad = 2\n"); },
                    {"<string>:2", "invalid key name"});
}

TEST(ConfErrors, LineWithoutEquals) {
  expect_conf_error([] { (void)parse_string("[m]\njust some words\n"); },
                    {"<string>:2", "expected 'key = value'"});
}

TEST(ConfErrors, EmptyValue) {
  expect_conf_error([] { (void)parse_string("[m]\nx =\n"); },
                    {"<string>:2", "empty value"});
}

TEST(ConfErrors, MissingConfigFile) {
  expect_conf_error([] { (void)parse_file("/no/such/config.conf"); },
                    {"/no/such/config.conf", "cannot open"});
}

TEST(ConfErrors, MissingIncludeFile) {
  expect_conf_error(
      [] { (void)parse_string("include \"no-such-file.conf\"\n"); },
      {"<string>:1", "cannot open included file"});
}

TEST(ConfErrors, CyclicIncludeDiagnosed) {
  const std::string dir = ::testing::TempDir();
  const std::string a = write_file(dir, "cycle_a.conf",
                                   "include \"cycle_b.conf\"\n[m]\nx = 1\n");
  write_file(dir, "cycle_b.conf", "include \"cycle_a.conf\"\n");
  expect_conf_error([&] { (void)parse_file(a); },
                    {"cycle_b.conf:1", "cyclic include"});
}

TEST(ConfErrors, SelfIncludeDiagnosed) {
  const std::string dir = ::testing::TempDir();
  const std::string p =
      write_file(dir, "self.conf", "include \"self.conf\"\n");
  expect_conf_error([&] { (void)parse_file(p); },
                    {"self.conf:1", "cyclic include"});
}

// ---------------------------------------------------------------------------
// Typed getters and the strict-schema sweep.
// ---------------------------------------------------------------------------

TEST(ConfTable, GettersEnforceTypeNamingTheSource) {
  const Table t = parse_string("[m]\nname = mesh\nnum = 4\nflag = true\n");
  expect_conf_error([&] { (void)t.get_int("m.name", 0); },
                    {"<string>:2", "must be an integer", "string"});
  expect_conf_error([&] { (void)t.get_string("m.num", ""); },
                    {"<string>:3", "must be a string"});
  expect_conf_error([&] { (void)t.get_bool("m.num", false); },
                    {"<string>:3", "must be a boolean"});
  expect_conf_error([&] { (void)t.get_u64("m.flag", 0); },
                    {"<string>:4", "must be an integer"});
}

TEST(ConfTable, GettersEnforceRange) {
  const Table t = parse_string("[m]\nnodes = 0\nneg = -5\n");
  expect_conf_error([&] { (void)t.get_int("m.nodes", 1, 1, 1024); },
                    {"<string>:2", "out of range", "[1, 1024]"});
  expect_conf_error([&] { (void)t.get_u64("m.neg", 0); },
                    {"<string>:3", "non-negative"});
}

TEST(ConfTable, GetNameListsTheAlternatives) {
  const Table t = parse_string("[m]\nnetwork = hypercube\n");
  expect_conf_error(
      [&] { (void)t.get_name("m.network", "omega", {"omega", "mesh"}); },
      {"<string>:2", "hypercube", "{omega, mesh}"});
}

TEST(ConfTable, UnknownKeyRejectedWithLocation) {
  const Table t = parse_string("[m]\nknown = 1\nbogus = 2\n");
  (void)t.get_int("m.known", 0);
  expect_conf_error([&] { t.expect_all_consumed(); },
                    {"<string>:3", "unknown key 'm.bogus'"});
  // A removed knob is just another unknown key.
  const Table removed = parse_string("[machine]\nnodes = 8\nshards = 4\n");
  (void)resolve_scenario(removed);
  expect_conf_error([&] { removed.expect_all_consumed(); },
                    {"<string>:3", "unknown key 'machine.shards'"});
}

TEST(ConfTable, IgnoredSectionsAreExemptFromTheSweep) {
  const Table t = parse_string("[m]\nknown = 1\n[chaos]\nplans = drop\n");
  (void)t.get_int("m.known", 0);
  t.expect_all_consumed({"chaos"});  // the other tool's preset block
}

TEST(ConfTable, DumpReparsesToTheSameValues) {
  const Table t = parse_string(
      "top = 1\n[m]\nname = mesh\nnum = 2 + 2\nflag = !false\n"
      "quoted = \"a \\\"b\\\" c\"\n[w]\nkind = work-queue\n");
  std::ostringstream os;
  t.dump(os);
  const Table again = parse_string(os.str());
  EXPECT_TRUE(t.same_values(again)) << "dump was:\n" << os.str();
}

// ---------------------------------------------------------------------------
// Scenario resolution (the [machine]/[workload] schema).
// ---------------------------------------------------------------------------

TEST(ConfScenario, ResolvesMachineAndWorkload) {
  const Table t = parse_string(
      "[machine]\nnodes = 8\nflavor = wbi\nnetwork = mesh\n"
      "net_buffer_depth = 2\ndir_limit = 4\ndir_overflow = coarse\n"
      "[workload]\nkind = sync-model\ntasks_per_proc = 6\ngrain = 30\n");
  const Scenario s = resolve_scenario(t);
  t.expect_all_consumed();
  EXPECT_EQ(s.machine.nodes, 8u);
  EXPECT_EQ(s.machine.flavor, "wbi");
  EXPECT_EQ(s.machine.network, "mesh");
  EXPECT_EQ(s.machine.buffer_depth, 2u);
  EXPECT_EQ(s.machine.dir_limit, 4u);
  EXPECT_EQ(s.machine.dir_overflow, "coarse");
  EXPECT_EQ(s.workload.kind, "sync-model");
  EXPECT_EQ(s.workload.sync_model.tasks_per_proc, 6u);
  EXPECT_EQ(s.workload.sync_model.grain, 30u);
}

TEST(ConfScenario, AbsentKeysKeepFlagDefaults) {
  // An empty config resolves to the CLI's historical defaults — the
  // bit-identity anchor of the conformance grid.
  const Table t = parse_string("");
  const Scenario s = resolve_scenario(t);
  const MachineSpec d;
  EXPECT_EQ(s.machine.nodes, d.nodes);
  EXPECT_EQ(s.machine.flavor, d.flavor);
  EXPECT_EQ(s.machine.network, d.network);
  EXPECT_EQ(s.machine.seed, d.seed);
  EXPECT_EQ(s.workload.kind, "work-queue");
  EXPECT_EQ(s.workload.work_queue.total_tasks, 256u);
  EXPECT_EQ(s.workload.work_queue.grain, 100u);
}

TEST(ConfScenario, SourceForcesTraceKindAndToleratesModelKnobs) {
  // `-k workload.source=trace:f.tr` re-drives a config whose [workload]
  // still describes the recorded model; those knobs are provenance, not
  // schema violations.
  const Table t = parse_string(
      "[workload]\nkind = sync-model\ntasks_per_proc = 6\ngrain = 30\n"
      "source = trace:f.tr\n");
  const Scenario s = resolve_scenario(t);
  t.expect_all_consumed();
  EXPECT_EQ(s.workload.kind, "trace");
  EXPECT_EQ(s.workload.trace_file, "f.tr");
}

TEST(ConfScenario, BadSourcePrefixRejected) {
  const Table t = parse_string("[workload]\nsource = file.tr\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "trace:<file>"});
}

TEST(ConfScenario, TraceKindNeedsAFile) {
  const Table t = parse_string("[workload]\nkind = trace\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "source = trace:<file>"});
}

TEST(ConfScenario, UnknownFlavorListsTheChoices) {
  const Table t = parse_string("[machine]\nflavor = dragon\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "dragon", "paper"});
}

TEST(ConfScenario, ZeroNodesOutOfRange) {
  const Table t = parse_string("[machine]\nnodes = 0\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "out of range"});
}

TEST(ConfScenario, PercentKnobsAreWholePercentages) {
  const Table t = parse_string("[workload]\nkind = work-queue\nread_pct = 85\n");
  const Scenario s = resolve_scenario(t);
  EXPECT_DOUBLE_EQ(s.workload.work_queue.read_ratio, 0.85);
  const Table bad = parse_string("[workload]\nkind = work-queue\nread_pct = 120\n");
  expect_conf_error([&] { (void)resolve_scenario(bad); },
                    {"<string>:3", "out of range", "[0, 100]"});
}


// ---------------------------------------------------------------------------
// Option tables: every CLI flag is an alias of one config key.
// ---------------------------------------------------------------------------

const char* const kCommands[] = {"run", "check", "trace", "bench", "diff", "model", "chaos"};

/// Runs the section reader of `command` over `t` (each ends with
/// expect_all_consumed).
void read_section(std::string_view command, const Table& t) {
  if (command == "bench") (void)read_bench(t);
  else if (command == "diff") (void)read_diff(t);
  else if (command == "model") (void)read_model(t);
  else if (command == "chaos") (void)read_chaos(t);
  else (void)read_run(t);
}

/// A value each string key's reader accepts; any other string key takes
/// any text.
std::string sample(std::string_view key) {
  static const std::map<std::string, std::string, std::less<>> kNames = {
      {"machine.flavor", "wbi"},          {"machine.consistency", "sc"},
      {"machine.lock", "tts"},            {"machine.barrier", "tree"},
      {"machine.network", "mesh"},        {"machine.dir_overflow", "coarse"},
      {"machine.invariants", "full"},     {"workload.kind", "stencil"},
      {"diff.flavors", "ru,cbl"},         {"diff.network", "mesh"},
      {"diff.dir_overflow", "coarse"},    {"model.flavors", "wbi"},
      {"model.networks", "crossbar"},     {"model.dir_overflow", "coarse"},
      {"chaos.flavors", "cbl"},           {"chaos.networks", "ideal"},
      {"chaos.dir_overflow", "coarse"},   {"machine.fault_plan", "drop"},
      {"diff.inject_fault", "eager-flush"}, {"model.inject_fault", "empty-gate"},
      {"chaos.plans", "drop,dup"},
  };
  const auto it = kNames.find(key);
  return it == kNames.end() ? "./some/path" : it->second;
}

TEST(OptionTables, EveryFlagAliasesAKeyItsReaderConsumes) {
  for (const char* command : kCommands) {
    for (const Flag& f : option_table(command)) {
      SCOPED_TRACE(std::string(command) + " " + std::string(f.name));
      Value v;
      switch (f.type) {
        case FlagType::kInt: v.i = 1; break;
        case FlagType::kString:
          v.kind = Value::Kind::kString;
          v.s = sample(f.key);
          break;
        case FlagType::kSwitch:
          v.kind = Value::Kind::kBool;
          v.b = true;
          break;
      }
      Table t;
      t.set(std::string(f.key), v);
      EXPECT_NO_THROW(read_section(command, t));
    }
  }
}

TEST(OptionTables, NoFlagOrKeyAppearsTwice) {
  for (const char* command : kCommands) {
    std::set<std::string_view> flags;
    std::set<std::string_view> keys;
    for (const Flag& f : option_table(command)) {
      EXPECT_TRUE(flags.insert(f.name).second) << command << " " << f.name;
      EXPECT_TRUE(keys.insert(f.key).second) << command << " " << f.key;
    }
  }
}

TEST(OptionTables, StringFlagsAreTakenLiterally) {
  // `-k bench.out=./x.json` is an expression (and a syntax error); the
  // same text as a flag value is a path.
  EXPECT_EQ(read_bench(parse_command_line("bench", {"--out", "./x.json"}).table).out,
            "./x.json");
  EXPECT_EQ(read_bench(parse_command_line("bench", {"--out", "/tmp/x.json"}).table).out,
            "/tmp/x.json");
  EXPECT_EQ(read_diff(parse_command_line("diff", {"--corpus", "1+2"}).table).corpus, "1+2");
  const RunOptions r = read_run(
      parse_command_line("run", {"--fault-plan", "drop:p=0.05;seed=3", "--csv", "./s.csv"})
          .table);
  EXPECT_EQ(r.scenario.machine.fault_plan, "drop:p=0.05;seed=3");
  EXPECT_EQ(r.csv, "./s.csv");
}

TEST(OptionTables, AFlagOverridesTheConfigListInsteadOfExtendingIt) {
  const std::string path =
      write_file(::testing::TempDir(), "flag_list.conf", "[diff]\nflavors = \"ru\"\n");
  const DiffOptions o =
      read_diff(parse_command_line("diff", {"--config", path, "--flavors", "wbi"}).table);
  EXPECT_EQ(o.flavors, std::vector<ref::Flavor>{ref::Flavor::kWbi});
  const ModelOptions m =
      read_model(parse_command_line("model", {"--tests", "sb", "--tests", "sb"}).table);
  EXPECT_EQ(m.tests, std::vector<std::string>{"sb"});
}

TEST(OptionTables, OutOfRangeFlagIsASchemaErrorNamingTheFlag) {
  expect_conf_error([] { (void)read_diff(parse_command_line("diff", {"--nodes", "0"}).table); },
                    {"<flag --nodes>", "diff.nodes", "out of range"});
  expect_conf_error(
      [] { (void)read_run(parse_command_line("run", {"--nodes", "4", "--tasks", "0"}).table); },
      {"<flag --tasks>", "workload.tasks", "out of range"});
  EXPECT_THROW((void)parse_command_line("run", {"--seed", "9223372036854775808"}), UsageError);
  EXPECT_THROW((void)parse_command_line("run", {"--nodes", "4x"}), UsageError);
  EXPECT_THROW((void)parse_command_line("diff", {"--bogus"}), UsageError);
  EXPECT_THROW((void)parse_command_line("run", {"--record"}), UsageError);
  EXPECT_THROW((void)parse_command_line("run", {"-k", "machine.nodes=4"}), UsageError);
  EXPECT_THROW((void)parse_command_line("run", {"--dump-config"}), UsageError);
}

TEST(OptionTables, FlagOnlyKeysCannotComeFromAFile) {
  const std::string path =
      write_file(::testing::TempDir(), "cli_key.conf", "[cli]\ncsv = \"x.csv\"\n");
  expect_conf_error([&] { (void)parse_command_line("run", {"--config", path}); },
                    {"cli_key.conf:2", "unknown key 'cli.csv'"});
}

TEST(OptionTables, TasksGrainItersFanOutPerWorkloadKind) {
  const auto run = [](std::vector<std::string> args) {
    return read_run(parse_command_line("run", args).table).scenario.workload;
  };
  // Flag-only runs start from --tasks 256 --grain 100 --iters 8, which a
  // config run does not get (stencil sweeps 8 here, 6 from an empty config).
  EXPECT_EQ(run({"--workload", "stencil"}).stencil.sweeps, 8u);
  EXPECT_EQ(resolve_scenario(parse_string("")).workload.stencil.sweeps, 6u);
  EXPECT_EQ(run({"--workload", "grid", "--iters", "3"}).grid.sweeps, 3u);
  EXPECT_EQ(run({"--workload", "solver", "--iters", "0"}).solver.iterations, 0u);
  const WorkloadSpec wq = run({"--tasks", "64", "--grain", "7"});
  EXPECT_EQ(wq.work_queue.total_tasks, 64u);
  EXPECT_EQ(wq.work_queue.grain, 7u);
  const WorkloadSpec sm = run({"--workload", "sync-model", "--nodes", "4", "--tasks", "64"});
  EXPECT_EQ(sm.sync_model.tasks_per_proc, 16u);
  EXPECT_EQ(sm.sync_model.grain, 100u);
  EXPECT_EQ(run({"--workload", "sync-model", "--nodes", "8", "--tasks", "0"})
                .sync_model.tasks_per_proc,
            1u);
}

TEST(OptionTables, ReplayPrintsTheCellAndEveryNonDefaultOption) {
  const Table t = parse_command_line("model", {"--nodes", "16", "--buffer-depth", "2",
                                               "--inject-fault", "eager-flush", "--seeds", "64"})
                      .table;
  EXPECT_EQ(Replay("model", t).line({{"model.tests", "sb"}, {"model.seeds", "1"}}),
            "bcsim model --tests sb --seeds 1 --inject-fault eager-flush --buffer-depth 2");
  const Table c = parse_command_line("chaos", {"--corpus", "c.txt", "--stalls", "5"}).table;
  EXPECT_EQ(Replay("chaos", c).line({{"chaos.corpus", ""}}), "bcsim chaos --stalls 5");
  const Table r =
      parse_command_line("check", {"--nodes", "4", "--network", "mesh", "--seeds", "9"}).table;
  EXPECT_EQ(Replay("check", r).line({{"cli.first_seed", "3"}}),
            "bcsim check --nodes 4 --network mesh --first-seed 3");
}

}  // namespace
}  // namespace bcsim::conf
