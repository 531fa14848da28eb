#include "bcsim_tools.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/work_queue_model.hpp"

namespace bcsim::tool {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Calls `body()` (one batch of `items` operations) until `min_ms` of wall
/// time accumulates, `reps` times over; returns the best (lowest) ns/op.
/// Best-of-reps filters scheduler noise the way google-benchmark's
/// repetitions do, without the dependency on the CLI path.
template <typename F>
double measure_ns_per_op(F&& body, double items, double min_ms, int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    // Warm caches/pools before the timed window.
    body();
    std::uint64_t batches = 0;
    const auto t0 = Clock::now();
    double ns = 0;
    do {
      body();
      ++batches;
      ns = elapsed_ns(t0);
    } while (ns < min_ms * 1e6);
    const double per_op = ns / (static_cast<double>(batches) * items);
    if (r == 0 || per_op < best) best = per_op;
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool higher_is_better;
  bool exact;  ///< machine-independent: must match the baseline bit-for-bit
};

struct E2eResult {
  Tick completion = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  double wall_ms = 0;
};

core::MachineConfig flavor_config(const std::string& flavor, std::uint32_t nodes) {
  core::MachineConfig cfg;
  cfg.n_nodes = nodes;
  cfg.network = core::NetworkKind::kOmega;
  if (flavor == "wbi") {
    cfg.data_protocol = core::DataProtocol::kWbi;
    cfg.lock_impl = core::LockImpl::kTts;
    cfg.barrier_impl = core::BarrierImpl::kCentral;
  } else if (flavor == "cbl") {
    cfg.data_protocol = core::DataProtocol::kWbi;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
  } else {  // paper
    cfg.data_protocol = core::DataProtocol::kReadUpdate;
    cfg.consistency = core::Consistency::kBuffered;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
  }
  cfg.validate();
  return cfg;
}

E2eResult run_e2e(const std::string& flavor, bool smoke) {
  const auto cfg = flavor_config(flavor, smoke ? 8u : 16u);
  workload::WorkQueueConfig wq;
  wq.total_tasks = smoke ? 64 : 256;
  wq.grain = smoke ? 20 : 100;
  core::Machine m(cfg);
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  E2eResult r;
  const auto t0 = Clock::now();
  r.completion = m.run(4'000'000'000ULL);
  r.wall_ms = elapsed_ns(t0) / 1e6;
  r.messages = m.stats().counter_value("net.messages");
  r.events = m.simulator().events_processed();
  r.digest = m.stats_digest();
  return r;
}

/// Work-queue run on a bounded (credit-flow) fabric, optionally with the
/// coarse-vector directory overflow. These cells pin the new subsystems'
/// simulated results in the baseline; the unbounded e2e.* digests above
/// double as the bit-identity gate for depth 0.
E2eResult run_fabric_e2e(core::NetworkKind net, bool coarse, bool smoke) {
  // The coarse cell runs the WBI flavor (invalidation traffic is what the
  // representation changes) with a pointer budget of 1, so the work-queue
  // blocks overflow to region bits immediately and the digest pins the
  // coarse path, not a never-taken branch.
  auto cfg = flavor_config(coarse ? "wbi" : "paper", smoke ? 8u : 16u);
  cfg.network = net;
  cfg.net_buffer_depth = coarse ? 1 : 4;
  if (coarse) {
    cfg.dir_pointer_limit = 1;
    cfg.dir_overflow = core::DirOverflow::kCoarse;
    cfg.dir_region_nodes = 2;
  }
  workload::WorkQueueConfig wq;
  wq.total_tasks = smoke ? 64 : 256;
  wq.grain = smoke ? 20 : 100;
  core::Machine m(cfg);
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  E2eResult r;
  const auto t0 = Clock::now();
  r.completion = m.run(4'000'000'000ULL);
  r.wall_ms = elapsed_ns(t0) / 1e6;
  r.messages = m.stats().counter_value("net.messages");
  r.events = m.simulator().events_processed();
  r.digest = m.stats_digest();
  return r;
}

long max_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // kilobytes on Linux
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- microbenchmark bodies -------------------------------------------------

double micro_event_queue_push_pop(double min_ms, int reps) {
  sim::EventQueue q;
  sim::Rng rng(1);
  std::uint64_t sink = 0;
  return measure_ns_per_op(
      [&] {
        for (int i = 0; i < 64; ++i) q.push(rng.next_below(1000), [] {});
        while (!q.empty()) sink += q.pop().first;
      },
      64, min_ms, reps);
}

double micro_event_queue_same_tick(double min_ms, int reps) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  return measure_ns_per_op(
      [&] {
        for (int i = 0; i < 256; ++i) q.push(7, [] {});
        while (!q.empty()) sink += q.pop().first;
      },
      256, min_ms, reps);
}

double micro_sim_dispatch(double min_ms, int reps) {
  return measure_ns_per_op(
      [&] {
        sim::Simulator s;
        // Four interleaved self-rescheduling chains: the steady-state shape
        // of the main loop (pop, advance clock, fire, push).
        constexpr int kSteps = 4096;
        int remaining = 4 * kSteps;
        struct Chain {
          sim::Simulator& s;
          int& remaining;
          void operator()() const {
            if (--remaining > 0) s.schedule(1, *this);
          }
        };
        for (int c = 0; c < 4; ++c) s.schedule(1, Chain{s, remaining});
        s.run();
      },
      4 * 4096, min_ms, reps);
}

double micro_omega_send(double min_ms, int reps) {
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  net::OmegaNetwork network(simulator, stats, 64, 1);
  std::uint64_t delivered = 0;
  for (NodeId d = 0; d < 64; ++d) {
    network.attach(d, net::Unit::kMemory, [&delivered](const net::Message&) { ++delivered; });
    network.attach(d, net::Unit::kCache, [&delivered](const net::Message&) { ++delivered; });
  }
  sim::Rng rng(9);
  return measure_ns_per_op(
      [&] {
        for (int i = 0; i < 64; ++i) {
          net::Message m;
          m.src = static_cast<NodeId>(rng.next_below(64));
          m.dst = static_cast<NodeId>(rng.next_below(64));
          m.unit = net::Unit::kMemory;
          network.send(std::move(m));
        }
        simulator.run();
      },
      64, min_ms, reps);
}

// --- JSON ------------------------------------------------------------------

void write_json(std::FILE* f, const conf::BenchOptions& o, const std::vector<Metric>& metrics,
                const std::vector<std::pair<std::string, std::string>>& digests) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": 1,\n");
  std::fprintf(f, "  \"bench\": \"bcsim\",\n");
  std::fprintf(f, "  \"revision\": \"%s\",\n", o.revision.c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", o.smoke ? "true" : "false");
  std::fprintf(f, "  \"rss_max_kb\": %ld,\n", max_rss_kb());
  std::fprintf(f, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f,
                 "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"direction\": \"%s\", \"exact\": %s}%s\n",
                 m.name.c_str(), m.value, m.unit.c_str(),
                 m.higher_is_better ? "more" : "less", m.exact ? "true" : "false",
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"digests\": {\n");
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::fprintf(f, "    \"%s\": \"%s\"%s\n", digests[i].first.c_str(),
                 digests[i].second.c_str(), i + 1 < digests.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
}

}  // namespace

int run_bench(const conf::BenchOptions& o) {
  const double min_ms = o.smoke ? 40.0 : 200.0;
  const int reps = o.smoke ? 2 : 3;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> digests;

  std::printf("bcsim bench (%s, rev %s)\n", o.smoke ? "smoke" : "full", o.revision.c_str());

  const auto micro = [&](const char* name, double ns) {
    metrics.push_back({std::string("micro.") + name + ".ns_per_op", ns, "ns/op", false, false});
    std::printf("  micro  %-28s %10.1f ns/op\n", name, ns);
  };
  micro("event_queue.push_pop", micro_event_queue_push_pop(min_ms, reps));
  micro("event_queue.same_tick", micro_event_queue_same_tick(min_ms, reps));
  micro("sim.dispatch", micro_sim_dispatch(min_ms, reps));
  micro("net.omega_send", micro_omega_send(min_ms, reps));

  for (const char* flavor : {"wbi", "cbl", "paper"}) {
    // Two runs: the faster wall time scores perf, and the pair must agree
    // on every simulated quantity or the harness itself flags the build.
    E2eResult a = run_e2e(flavor, o.smoke);
    const E2eResult b = run_e2e(flavor, o.smoke);
    if (a.digest != b.digest || a.completion != b.completion || a.messages != b.messages) {
      std::fprintf(stderr,
                   "bcsim bench: e2e.%s is nondeterministic "
                   "(digests %s vs %s) — refusing to write results\n",
                   flavor, hex64(a.digest).c_str(), hex64(b.digest).c_str());
      return 1;
    }
    a.wall_ms = std::min(a.wall_ms, b.wall_ms);
    const std::string p = std::string("e2e.") + flavor;
    const double secs = a.wall_ms / 1e3;
    metrics.push_back({p + ".wall_ms", a.wall_ms, "ms", false, false});
    metrics.push_back({p + ".sim_ticks_per_sec",
                       static_cast<double>(a.completion) / secs, "ticks/s", true, false});
    metrics.push_back({p + ".events_per_sec",
                       static_cast<double>(a.events) / secs, "events/s", true, false});
    metrics.push_back({p + ".messages_per_sec",
                       static_cast<double>(a.messages) / secs, "msgs/s", true, false});
    metrics.push_back({p + ".completion_ticks",
                       static_cast<double>(a.completion), "ticks", false, true});
    metrics.push_back({p + ".messages", static_cast<double>(a.messages), "msgs", false, true});
    digests.emplace_back(p, hex64(a.digest));
    std::printf("  e2e    %-6s %8.1f ms  %12.0f ticks/s  %10.0f msgs/s  digest %s\n", flavor,
                a.wall_ms, static_cast<double>(a.completion) / secs,
                static_cast<double>(a.messages) / secs, hex64(a.digest).c_str());
  }

  struct FabricCell {
    const char* name;
    core::NetworkKind net;
    bool coarse;
  };
  for (const FabricCell& fc : {FabricCell{"fabric.omega", core::NetworkKind::kOmega, false},
                               FabricCell{"fabric.mesh", core::NetworkKind::kMesh, false},
                               FabricCell{"fabric.coarse", core::NetworkKind::kOmega, true}}) {
    E2eResult a = run_fabric_e2e(fc.net, fc.coarse, o.smoke);
    const E2eResult b = run_fabric_e2e(fc.net, fc.coarse, o.smoke);
    if (a.digest != b.digest || a.completion != b.completion || a.messages != b.messages) {
      std::fprintf(stderr,
                   "bcsim bench: e2e.%s is nondeterministic "
                   "(digests %s vs %s) — refusing to write results\n",
                   fc.name, hex64(a.digest).c_str(), hex64(b.digest).c_str());
      return 1;
    }
    a.wall_ms = std::min(a.wall_ms, b.wall_ms);
    const std::string p = std::string("e2e.") + fc.name;
    metrics.push_back({p + ".wall_ms", a.wall_ms, "ms", false, false});
    metrics.push_back({p + ".completion_ticks",
                       static_cast<double>(a.completion), "ticks", false, true});
    metrics.push_back({p + ".messages", static_cast<double>(a.messages), "msgs", false, true});
    digests.emplace_back(p, hex64(a.digest));
    std::printf("  e2e    %-13s %8.1f ms  %10llu ticks  digest %s\n", fc.name, a.wall_ms,
                static_cast<unsigned long long>(a.completion), hex64(a.digest).c_str());
  }

  const std::string out = o.out.empty() ? "BENCH_" + o.revision + ".json" : o.out;
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bcsim bench: cannot write %s\n", out.c_str());
    return 1;
  }
  write_json(f, o, metrics, digests);
  std::fclose(f);
  std::printf("bench results -> %s\n", out.c_str());
  return 0;
}

}  // namespace bcsim::tool
