#include "conf/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "conf/strict_parse.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::conf {

namespace {

using enum FlagType;

/// The reserved section of flag-only keys (see options.hpp).
constexpr std::string_view kCliSection = "cli.";

const Value* find(const Table& t, std::string_view key) {
  const auto it = t.entries().find(std::string(key));
  return it == t.entries().end() ? nullptr : &it->second;
}

/// The workload kind a table selects (resolve_scenario validates it).
std::string workload_kind(const Table& t) {
  if (t.has("workload.source")) return "trace";
  const Value* k = find(t, "workload.kind");
  return k != nullptr && k->kind == Value::Kind::kString ? k->s : "work-queue";
}

/// A harness table: each flag aliases the key of the same name in the
/// subcommand's section (`--first-program` is `diff.first_program`).
std::vector<Flag> section_table(std::string_view section,
                                std::initializer_list<std::pair<std::string_view, FlagType>> rows) {
  std::vector<Flag> out;
  for (const auto& [name, type] : rows) {
    std::string key = std::string(section) + "." + std::string(name.substr(2));
    std::replace(key.begin(), key.end(), '-', '_');
    out.push_back({name, key, type});
  }
  return out;
}

}  // namespace

const std::vector<Flag>& option_table(std::string_view command) {
  static const std::vector<Flag> run = {
      {"--nodes", "machine.nodes", kInt},        {"--machine", "machine.flavor", kString},
      {"--consistency", "machine.consistency", kString},
      {"--lock", "machine.lock", kString},       {"--barrier", "machine.barrier", kString},
      {"--network", "machine.network", kString},
      {"--buffer-depth", "machine.net_buffer_depth", kInt},
      {"--dir-limit", "machine.dir_limit", kInt},
      {"--dir-overflow", "machine.dir_overflow", kString},
      {"--dir-region", "machine.dir_region", kInt},
      {"--block-words", "machine.block_words", kInt}, {"--seed", "machine.seed", kInt},
      {"--schedule-seed", "machine.schedule_seed", kInt},
      {"--check-invariants", "machine.invariants", kString},
      {"--fault-plan", "machine.fault_plan", kString},
      {"--watchdog", "machine.watchdog", kInt},  {"--trace-dump", "machine.trace_dump", kInt},
      {"--workload", "workload.kind", kString},  {"--tasks", "cli.tasks", kInt},
      {"--grain", "cli.grain", kInt},            {"--iters", "cli.iters", kInt},
      {"--seeds", "cli.seeds", kInt},            {"--first-seed", "cli.first_seed", kInt},
      {"--csv", "cli.csv", kString},             {"--report", "cli.report", kSwitch},
      {"--trace-out", "cli.trace_out", kString}, {"--trace-csv", "cli.trace_csv", kString},
      {"--trace-capacity", "cli.trace_capacity", kInt},
  };
  static const std::vector<Flag> trace = [] {
    std::vector<Flag> t = run;
    t.push_back({"--record", "cli.record", kSwitch});
    return t;
  }();
  static const std::vector<Flag> bench =
      section_table("bench", {{"--smoke", kSwitch}, {"--out", kString}, {"--rev", kString}});
  static const std::vector<Flag> diff = section_table(
      "diff", {{"--flavors", kString},     {"--programs", kInt},      {"--first-program", kInt},
               {"--schedules", kInt},      {"--first-schedule", kInt}, {"--nodes", kInt},
               {"--phases", kInt},         {"--network", kString},    {"--inject-fault", kString},
               {"--buffer-depth", kInt},   {"--dir-limit", kInt},     {"--dir-overflow", kString},
               {"--dir-region", kInt},     {"--budget", kInt},        {"--corpus", kString}});
  static const std::vector<Flag> model = section_table(
      "model", {{"--tests", kString},      {"--flavors", kString},    {"--networks", kString},
                {"--seeds", kInt},         {"--first-seed", kInt},    {"--nodes", kInt},
                {"--inject-fault", kString}, {"--buffer-depth", kInt}, {"--dir-limit", kInt},
                {"--dir-overflow", kString}, {"--dir-region", kInt},  {"--budget", kInt},
                {"--print-allowed", kSwitch}, {"--require-complete", kSwitch}});
  static const std::vector<Flag> chaos = section_table(
      "chaos", {{"--plans", kString},      {"--flavors", kString},    {"--networks", kString},
                {"--seeds", kInt},         {"--first-seed", kInt},    {"--programs", kInt},
                {"--first-program", kInt}, {"--nodes", kInt},         {"--phases", kInt},
                {"--watchdog", kInt},      {"--stalls", kInt},        {"--trace-dump", kInt},
                {"--buffer-depth", kInt},  {"--dir-limit", kInt},     {"--dir-overflow", kString},
                {"--dir-region", kInt},    {"--budget", kInt},        {"--corpus", kString}});
  if (command == "run" || command == "check") return run;
  if (command == "trace") return trace;
  if (command == "bench") return bench;
  if (command == "diff") return diff;
  if (command == "model") return model;
  if (command == "chaos") return chaos;
  throw std::invalid_argument("no option table for '" + std::string(command) + "'");
}

CommandLine parse_command_line(std::string_view command, std::vector<std::string> args) {
  const bool run = command == "run" || command == "check" || command == "trace";
  if (run && std::find(args.begin(), args.end(), "--config") == args.end()) {
    // The historical flag defaults, which a config-built run does not get.
    args.insert(args.begin(), {"--tasks", "256", "--grain", "100", "--iters", "8"});
  }
  const std::vector<Flag>& table = option_table(command);
  std::string path;
  std::vector<Override> overrides;
  std::vector<std::pair<std::string, Value>> flags;
  CommandLine cl;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw UsageError("missing value for " + a);
      return args[++i];
    };
    if (a == "--config") {
      path = value();
    } else if (a == "-k") {
      try {
        overrides.push_back(parse_override(value()));
      } catch (const std::invalid_argument& e) {
        throw UsageError(e.what());
      }
    } else if (a == "--dump-config") {
      cl.dump = true;
    } else {
      const auto row = std::find_if(table.begin(), table.end(),
                                    [&](const Flag& f) { return f.name == a; });
      if (row == table.end()) {
        throw UsageError("unknown " + std::string(command) + " flag '" + a + "'");
      }
      Value v;
      v.loc.file = "<flag " + a + ">";
      if (row->type == FlagType::kInt) {
        const std::string& text = value();
        const std::uint64_t n = parse_u64(a, text);
        if (n > static_cast<std::uint64_t>(INT64_MAX)) {
          throw UsageError(a + " value " + text + " is out of range");
        }
        v.i = static_cast<std::int64_t>(n);
      } else if (row->type == FlagType::kString) {
        v.kind = Value::Kind::kString;
        v.s = value();
      } else {
        v.kind = Value::Kind::kBool;
        v.b = true;
      }
      flags.emplace_back(row->key, std::move(v));
    }
  }

  if (path.empty()) {
    if (cl.dump) throw UsageError("--dump-config requires --config");
    if (!overrides.empty()) throw UsageError("-k overrides require --config");
  } else {
    cl.table = parse_file(path, overrides);
    if (cl.dump) return cl;
    for (const auto& [key, v] : cl.table.entries()) {
      if (key.starts_with(kCliSection)) throw ConfError(v.loc, "unknown key '" + key + "'");
    }
  }
  for (auto& [key, v] : flags) {
    // `--workload` naming another kind than the file's starts that kind
    // from its defaults: the file's [workload] knobs described the other
    // model.
    if (key == "workload.kind" && v.s != workload_kind(cl.table)) {
      std::vector<std::string> stale;
      for (const auto& [k, unused] : cl.table.entries()) {
        if (k.starts_with("workload.")) stale.push_back(k);
      }
      for (const auto& k : stale) cl.table.erase(k);
    }
    cl.table.set(key, std::move(v));
  }
  return cl;
}

namespace {

/// `--tasks`, `--grain` and `--iters` predate the per-kind [workload]
/// keys; each writes the keys of the selected kind, where one applies.
void fan_out(Table& t) {
  const std::string kind = workload_kind(t);
  std::int64_t nodes = MachineSpec{}.nodes;
  if (const Value* n = find(t, "machine.nodes"); n && n->kind == Value::Kind::kInt) {
    nodes = std::max<std::int64_t>(1, n->i);
  }
  // Moves `from` onto `to` (per processor when `per_proc`); a kind without
  // that knob drops it.
  const auto fan = [&](std::string_view from, std::string_view to, bool per_proc = false) {
    const Value* v = find(t, from);
    if (v == nullptr) return;
    t.consume(from);
    if (to.empty()) return;
    Value out = *v;
    if (per_proc) out.i = std::max<std::int64_t>(1, out.i / nodes);
    t.set(std::string(to), out);
  };
  const bool wq = kind == "work-queue";
  const bool sm = kind == "sync-model";
  fan("cli.tasks", wq ? "workload.tasks" : sm ? "workload.tasks_per_proc" : "", sm);
  fan("cli.grain", wq || sm ? "workload.grain" : "");
  fan("cli.iters", kind == "solver"                      ? "workload.iterations"
                   : kind == "stencil" || kind == "grid" ? "workload.sweeps"
                                                         : "");
}

/// The four fabric keys shared by [diff], [model] and [chaos].
void read_fabric(const Table& t, const std::string& section, ref::Fabric& f) {
  f.buffer_depth = t.get_u32(section + ".buffer_depth", f.buffer_depth);
  f.dir_limit = t.get_u32(section + ".dir_limit", f.dir_limit);
  f.dir_overflow = parse_dir_overflow(t.get_name(
      section + ".dir_overflow", core::to_string(f.dir_overflow), {"broadcast", "coarse"}));
  f.dir_region = t.get_u32(section + ".dir_region", f.dir_region, 1);
}

const std::vector<std::string_view> kNetworks = {"omega", "crossbar", "mesh", "ideal"};

void read_flavors(const Table& t, std::string_view key, Flavors& out) {
  if (!t.has(key)) return;
  out.clear();
  for (const auto& name : t.get_list(key, {"wbi", "ru", "cbl"})) {
    out.push_back(*ref::parse_flavor(name));
  }
}

void read_networks(const Table& t, std::string_view key, Networks& out) {
  if (!t.has(key)) return;
  out.clear();
  for (const auto& name : t.get_list(key, kNetworks)) out.push_back(parse_network(name));
}

/// Fault-plan specs are resolved while reading, so a typo is a schema
/// error naming its flag or file:line.
void check_fault_plan(const Table& t, std::string_view key, const std::string& spec) {
  try {
    (void)sim::resolve_fault_plan(spec);
  } catch (const std::invalid_argument& e) {
    throw ConfError(t.loc(key), e.what());
  }
}

}  // namespace

RunOptions read_run(const Table& t) {
  Table w = t;
  fan_out(w);
  RunOptions o;
  o.scenario = resolve_scenario(w);
  MachineSpec& m = o.scenario.machine;
  m.trace_capacity = w.get_u64("cli.trace_capacity", m.trace_capacity);
  o.seeds = w.get_u64("cli.seeds", o.seeds);
  o.first_seed = w.get_u64("cli.first_seed", o.first_seed);
  o.csv = w.get_string("cli.csv", o.csv);
  o.report = w.get_bool("cli.report", o.report);
  o.record = w.get_bool("cli.record", o.record);
  o.trace_out = w.get_string("cli.trace_out", o.trace_out);
  o.trace_csv = w.get_string("cli.trace_csv", o.trace_csv);
  w.expect_all_consumed({"bench", "diff", "model", "chaos"});
  return o;
}

BenchOptions read_bench(const Table& t) {
  BenchOptions o;
  if (const char* rev = std::getenv("BCSIM_REV")) o.revision = rev;
  o.smoke = t.get_bool("bench.smoke", o.smoke);
  o.out = t.get_string("bench.out", o.out);
  o.revision = t.get_string("bench.rev", o.revision);
  t.expect_all_consumed({"machine", "workload", "diff", "model", "chaos"});
  return o;
}

DiffOptions read_diff(const Table& t) {
  DiffOptions o;
  read_flavors(t, "diff.flavors", o.flavors);
  o.programs = t.get_u64("diff.programs", o.programs, 1);
  o.schedules = t.get_u64("diff.schedules", o.schedules, 1);
  o.first_program = t.get_u64("diff.first_program", o.first_program);
  o.first_schedule = t.get_u64("diff.first_schedule", o.first_schedule);
  o.nodes = t.get_u32("diff.nodes", o.nodes, 1);
  o.phases = t.get_u32("diff.phases", o.phases);
  // "" is the historical spelling of the default network.
  std::vector<std::string_view> names = kNetworks;
  names.insert(names.begin(), "");
  const std::string network = t.get_name("diff.network", "", names);
  if (!network.empty()) o.fabric.network = parse_network(network);
  read_fabric(t, "diff", o.fabric);
  o.corpus = t.get_string("diff.corpus", o.corpus);
  o.inject_fault = t.get_string("diff.inject_fault", o.inject_fault);
  if (!o.inject_fault.empty()) check_fault_plan(t, "diff.inject_fault", o.inject_fault);
  o.budget = t.get_u64("diff.budget", o.budget);
  t.expect_all_consumed({"machine", "workload", "bench", "model", "chaos"});
  return o;
}

ModelOptions read_model(const Table& t) {
  ModelOptions o;
  o.tests = t.get_list("model.tests");
  read_flavors(t, "model.flavors", o.flavors);
  read_networks(t, "model.networks", o.networks);
  o.seeds = t.get_u64("model.seeds", o.seeds, 1);
  o.first_seed = t.get_u64("model.first_seed", o.first_seed);
  o.nodes = t.get_u32("model.nodes", o.nodes, 1);
  o.inject_fault = t.get_string("model.inject_fault", o.inject_fault);
  if (!o.inject_fault.empty()) check_fault_plan(t, "model.inject_fault", o.inject_fault);
  read_fabric(t, "model", o.fabric);
  o.print_allowed = t.get_bool("model.print_allowed", o.print_allowed);
  o.require_complete = t.get_bool("model.require_complete", o.require_complete);
  o.budget = t.get_u64("model.budget", o.budget);
  t.expect_all_consumed({"machine", "workload", "bench", "diff", "chaos"});
  return o;
}

ChaosOptions read_chaos(const Table& t) {
  ChaosOptions o;
  if (t.has("chaos.plans")) {
    o.plans = t.get_list("chaos.plans");
    for (const auto& p : o.plans) check_fault_plan(t, "chaos.plans", p);
  }
  read_flavors(t, "chaos.flavors", o.flavors);
  read_networks(t, "chaos.networks", o.networks);
  o.seeds = t.get_u64("chaos.seeds", o.seeds, 1);
  o.first_seed = t.get_u64("chaos.first_seed", o.first_seed);
  o.programs = t.get_u64("chaos.programs", o.programs, 1);
  o.first_program = t.get_u64("chaos.first_program", o.first_program);
  o.nodes = t.get_u32("chaos.nodes", o.nodes, 1);
  o.phases = t.get_u32("chaos.phases", o.phases);
  o.watchdog_interval = t.get_u64("chaos.watchdog", o.watchdog_interval);
  o.watchdog_stalls = t.get_u32("chaos.stalls", o.watchdog_stalls, 1);
  o.trace_dump = t.get_u64("chaos.trace_dump", o.trace_dump);
  read_fabric(t, "chaos", o.fabric);
  o.corpus = t.get_string("chaos.corpus", o.corpus);
  o.budget = t.get_u64("chaos.budget", o.budget);
  t.expect_all_consumed({"machine", "workload", "bench", "diff", "model"});
  return o;
}

bool for_each_cell(const DiffOptions& o, const CellVisitor& visit) {
  ref::Cell c;
  c.fabric = o.fabric;
  c.nodes = o.nodes;
  c.phases = o.phases;
  c.plan = o.inject_fault;
  for (c.program_seed = o.first_program; c.program_seed < o.first_program + o.programs;
       ++c.program_seed) {
    for (c.schedule_seed = o.first_schedule;
         c.schedule_seed < o.first_schedule + o.schedules; ++c.schedule_seed) {
      for (const ref::Flavor f : o.flavors) {
        c.flavor = f;
        if (!visit(c)) return false;
      }
    }
  }
  return true;
}

bool for_each_cell(const ChaosOptions& o, const CellVisitor& visit) {
  ref::Cell c;
  c.fabric = o.fabric;
  c.nodes = o.nodes;
  c.phases = o.phases;
  c.watchdog = o.watchdog_interval;
  c.watchdog_stalls = o.watchdog_stalls;
  c.trace_dump = o.trace_dump;
  for (const std::string& plan : o.plans) {
    c.plan = plan;
    for (const core::NetworkKind network : o.networks) {
      c.fabric.network = network;
      for (const ref::Flavor f : o.flavors) {
        c.flavor = f;
        for (std::uint64_t fs = o.first_seed; fs < o.first_seed + o.seeds; ++fs) {
          c.fault_seed = fs;
          c.schedule_seed = fs;
          for (c.program_seed = o.first_program;
               c.program_seed < o.first_program + o.programs; ++c.program_seed) {
            if (!visit(c)) return false;
          }
        }
      }
    }
  }
  return true;
}

namespace {

/// True when setting `key` to `v` alone reads back as the defaults.
bool is_default(std::string_view command, const std::string& key, const Value& v) {
  Table one;
  one.set(key, v);
  const Table none;
  if (command == "diff") return read_diff(one) == read_diff(none);
  if (command == "model") return read_model(one) == read_model(none);
  if (command == "chaos") return read_chaos(one) == read_chaos(none);
  return !key.starts_with("machine.") ||
         resolve_scenario(one).machine == resolve_scenario(none).machine;
}

}  // namespace

std::string Replay::line(const std::vector<Override>& cell) const {
  std::string out = "bcsim " + command_;
  for (const Flag& f : option_table(command_)) {
    std::string value;
    const auto c = std::find_if(cell.begin(), cell.end(),
                                [&](const Override& o) { return o.key == f.key; });
    if (c != cell.end()) {
      if (c->value.empty()) continue;
      value = c->value;
    } else {
      const Value* v = find(resolved_, f.key);
      if (v == nullptr || is_default(command_, std::string(f.key), *v)) continue;
      value = v->kind == Value::Kind::kString ? v->s : std::to_string(v->i);
    }
    out += " ";
    out += f.name;
    if (f.type != FlagType::kSwitch) out += " " + value;
  }
  return out;
}

std::string Replay::line(const ref::Cell& c) const {
  const std::string flavor = ref::to_string(c.flavor);
  if (command_ == "diff") {
    return line({{"diff.flavors", flavor},
                 {"diff.programs", "1"},
                 {"diff.first_program", std::to_string(c.program_seed)},
                 {"diff.schedules", "1"},
                 {"diff.first_schedule", std::to_string(c.schedule_seed)},
                 {"diff.corpus", ""}});
  }
  return line({{"chaos.plans", c.plan},
               {"chaos.flavors", flavor},
               {"chaos.networks", std::string(core::to_string(c.fabric.network))},
               {"chaos.seeds", "1"},
               {"chaos.first_seed", std::to_string(c.schedule_seed)},
               {"chaos.programs", "1"},
               {"chaos.first_program", std::to_string(c.program_seed)},
               {"chaos.corpus", ""}});
}

std::optional<CorpusEntry> parse_corpus_line(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> words;
  for (std::string w; is >> w;) words.push_back(std::move(w));
  if (words.empty() || words[0][0] == '#') return std::nullopt;
  CorpusEntry e;
  const auto verdict = ref::parse_verdict(words[0]);
  if (!verdict) throw std::invalid_argument("unknown verdict '" + words[0] + "'");
  e.verdict = *verdict;
  if (words.size() < 3 || words[1] != "bcsim" || (words[2] != "diff" && words[2] != "chaos")) {
    throw std::invalid_argument("expected '<verdict> bcsim diff|chaos <options>'");
  }
  const std::vector<std::string> args(words.begin() + 3, words.end());
  if (std::find(args.begin(), args.end(), "--config") != args.end()) {
    throw std::invalid_argument("a corpus line spells every option; --config is not allowed");
  }
  const Table t = parse_command_line(words[2], args).table;
  if (words[2] == "diff") {
    e.options = read_diff(t);
  } else {
    e.options = read_chaos(t);
  }
  return e;
}

std::vector<CorpusEntry> load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("corpus: cannot open " + path);
  std::vector<CorpusEntry> out;
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    try {
      if (auto e = parse_corpus_line(line)) out.push_back(std::move(*e));
    } catch (const std::exception& ex) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) + ": " + ex.what());
    }
  }
  return out;
}

}  // namespace bcsim::conf
