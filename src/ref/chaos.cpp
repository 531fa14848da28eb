#include "ref/chaos.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ref/ref_machine.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::ref {

const char* to_string(ChaosVerdict v) noexcept {
  switch (v) {
    case ChaosVerdict::kTransparent: return "transparent";
    case ChaosVerdict::kDiagnosed: return "diagnosed";
    case ChaosVerdict::kWrong: return "wrong";
    case ChaosVerdict::kHung: return "hung";
  }
  return "?";
}

namespace {

[[nodiscard]] std::optional<core::NetworkKind> parse_network(const std::string& s) noexcept {
  if (s == "omega") return core::NetworkKind::kOmega;
  if (s == "crossbar") return core::NetworkKind::kCrossbar;
  if (s == "mesh") return core::NetworkKind::kMesh;
  if (s == "ideal") return core::NetworkKind::kIdeal;
  return std::nullopt;
}

[[nodiscard]] std::optional<ChaosVerdict> parse_verdict(const std::string& s) noexcept {
  if (s == "transparent") return ChaosVerdict::kTransparent;
  if (s == "diagnosed") return ChaosVerdict::kDiagnosed;
  if (s == "wrong") return ChaosVerdict::kWrong;
  if (s == "hung") return ChaosVerdict::kHung;
  return std::nullopt;
}

/// The report's first line: enough for a one-line verdict table; the full
/// text already went to stderr when the machine diagnosed the run.
[[nodiscard]] std::string first_line(const std::string& s) {
  const std::size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

}  // namespace

ChaosOutcome run_chaos_cell(const ChaosCell& cell, Tick budget) {
  sim::FaultPlan plan = sim::resolve_fault_plan(cell.plan);
  plan.seed = cell.fault_seed;

  DrfGenConfig gen;
  gen.n_nodes = cell.nodes;
  gen.phases = cell.phases;
  const DrfProgram prog = generate_drf_program(cell.program_seed, gen);
  const RefResult ref = RefMachine(prog, 0).run();

  core::MachineConfig cfg =
      cell_machine_config(cell.flavor, cell.nodes, cell.schedule_seed, cell.fabric, plan);
  cfg.watchdog_interval = cell.watchdog_interval;
  cfg.watchdog_stalls = cell.watchdog_stalls;
  cfg.trace_dump = cell.trace_dump;

  const MachineRunResult mach = run_on_machine(prog, cfg, budget);

  ChaosOutcome out;
  out.completion = mach.completion;
  if (mach.completed && mach.error.empty()) {
    const Divergence d = compare_runs(prog, ref, mach, cfg.block_words);
    out.verdict = d.found() ? ChaosVerdict::kWrong : ChaosVerdict::kTransparent;
    out.detail = d.found() ? d.detail : "indistinguishable from the SC reference";
    return out;
  }
  // A terminated run counts as diagnosed only when the failure carries an
  // explanation: the liveness watchdog's report or an invariant violation.
  // Anything else — a bare budget exhaustion, an unexpected exception, a
  // silent non-completion — is a hang the harness must flag.
  if (mach.error.find("liveness watchdog") != std::string::npos ||
      mach.error.find("invariant violation") != std::string::npos) {
    out.verdict = ChaosVerdict::kDiagnosed;
    out.detail = first_line(mach.error);
    return out;
  }
  out.verdict = ChaosVerdict::kHung;
  out.detail = mach.error.empty() ? "did not complete (no diagnosis)" : first_line(mach.error);
  return out;
}

std::optional<ChaosCorpusEntry> parse_chaos_corpus_line(const std::string& line) {
  const std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos || line[start] == '#') return std::nullopt;

  std::istringstream is(line);
  ChaosCorpusEntry e;
  std::string flavor_s;
  std::string network_s;
  std::string verdict_s;
  if (!(is >> e.cell.plan >> e.cell.fault_seed >> flavor_s >> network_s >>
        e.cell.program_seed >> e.cell.schedule_seed >> e.cell.nodes >> e.cell.phases >>
        verdict_s)) {
    throw std::invalid_argument("chaos corpus: malformed line: " + line);
  }
  std::string extra;
  if (is >> extra) {
    throw std::invalid_argument("chaos corpus: trailing fields on line: " + line);
  }
  const auto flavor = parse_flavor(flavor_s);
  if (!flavor) throw std::invalid_argument("chaos corpus: bad flavor '" + flavor_s + "'");
  const auto network = parse_network(network_s);
  if (!network) throw std::invalid_argument("chaos corpus: bad network '" + network_s + "'");
  const auto verdict = parse_verdict(verdict_s);
  if (!verdict) throw std::invalid_argument("chaos corpus: bad verdict '" + verdict_s + "'");
  e.cell.flavor = *flavor;
  e.cell.fabric.network = *network;
  e.expected = *verdict;
  return e;
}

std::string format_chaos_corpus_line(const ChaosCorpusEntry& e) {
  std::ostringstream os;
  os << e.cell.plan << ' ' << e.cell.fault_seed << ' ' << to_string(e.cell.flavor) << ' '
     << to_string(e.cell.fabric.network) << ' ' << e.cell.program_seed << ' '
     << e.cell.schedule_seed << ' ' << e.cell.nodes << ' ' << e.cell.phases << ' '
     << to_string(e.expected);
  return os.str();
}

std::vector<ChaosCorpusEntry> load_chaos_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("chaos corpus: cannot open " + path);
  std::vector<ChaosCorpusEntry> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    try {
      if (auto e = parse_chaos_corpus_line(line)) out.push_back(std::move(*e));
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) + ": " + ex.what());
    }
  }
  return out;
}

}  // namespace bcsim::ref
