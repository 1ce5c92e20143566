// Layer replays: short, fixed amounts of work driven through one
// layer's public API on the workload's own machine, rank count and
// I/O system.  Each yields a host unit cost (time per resolve, event,
// switch, barrier, request) that the traced pass multiplies by the
// workload's obs counts to attribute its time to layers.  The counts
// a replay produces are exact and pinned in goldens.json, so a replay
// cannot silently stop exercising its layer.
#include <algorithm>
#include <memory>
#include <vector>

#include "core/beff/patterns.hpp"
#include "core/beff/sizes.hpp"
#include "core/beffio/pattern_table.hpp"
#include "e2ebench.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "parmsg/sim_transport.hpp"
#include "pfsim/filesystem.hpp"
#include "simt/engine.hpp"

namespace e2ebench {

namespace {

// Replay sizes: each replay takes a few tenths of a second on a
// current x86 core, long enough for a stable per-operation cost.
constexpr std::uint64_t kPatternSeed = 2001;  // beff's default seed
constexpr int kNetRounds = 1;
constexpr int kEventsPerChain = 2000;
constexpr int kSleepsPerProcess = 1000;
constexpr int kSpawnRounds = 200;
constexpr int kBarriers = 400;
constexpr int kRequestsPerSize = 16;
// b_eff_io's ranks spend most of their time in barriers and
// termination checks, so only a few requests are in flight at once.
constexpr int kPfsimActiveClients = 8;

/// net: every b_eff averaging pattern (6 ring + 6 random) at each of
/// the 21 b_eff message sizes, each a fresh FlowNetwork over the
/// machine's topology with every rank sending to both neighbours at
/// once (the shape of one Sendrecv step).
Replay replay_net(const machines::MachineSpec& m, int n) {
  Replay r{"net", {}, 0.0, 0.0};
  const auto topo = m.make_topology(n);
  const auto patterns = beff::averaging_patterns(n, kPatternSeed);
  const auto sizes = beff::message_sizes(m.lmax());
  std::uint64_t resolves = 0, incremental = 0, events = 0, done = 0;
  const double t0 = wall_now();
  for (int round = 0; round < kNetRounds; ++round) {
    for (const auto& p : patterns) {
      for (std::int64_t bytes : sizes) {
        simt::Engine engine;
        net::FlowNetwork flows(*topo, engine);
        for (int i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          const auto b = static_cast<double>(bytes);
          flows.start_flow(i, p.right[k], b, [&done](simt::Time) { ++done; });
          flows.start_flow(i, p.left[k], b, [&done](simt::Time) { ++done; });
        }
        engine.run();
        resolves += flows.resolves();
        incremental += flows.incremental_resolves();
        events += engine.events_fired();
      }
    }
  }
  r.wall_s = wall_now() - t0;
  r.counts = {{"resolves", resolves},
              {"incremental_resolves", incremental},
              {"events", events},
              {"flows_done", done}};
  return r;
}

/// simt events: one self-rescheduling event chain per rank, no fibers.
Replay replay_events(int n) {
  Replay r{"simt.event", {}, 0.0, 0.0};
  simt::Engine engine;
  struct Chain {
    simt::Engine* engine;
    double dt;
    int left;
    void step() {
      if (--left > 0) engine->schedule_after(dt, [this] { step(); });
    }
  };
  std::vector<Chain> chains;
  chains.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    chains.push_back({&engine, 1e-6 * (1.0 + 0.01 * i), kEventsPerChain});
  }
  const double t0 = wall_now();
  for (auto& c : chains) engine.schedule_after(c.dt, [&c] { c.step(); });
  engine.run();
  r.wall_s = wall_now() - t0;
  r.counts = {{"events", engine.events_fired()}};
  r.unit = r.wall_s / static_cast<double>(std::max<std::uint64_t>(1, engine.events_fired()));
  return r;
}

/// simt fibers: one process per rank sleeping in a loop; each sleep is
/// one event and a switch out and back in.
Replay replay_switches(int n) {
  Replay r{"simt.switch", {}, 0.0, 0.0};
  simt::Engine engine;
  const double t0 = wall_now();
  for (int i = 0; i < n; ++i) {
    const double dt = 1e-6 * (1.0 + 0.01 * i);
    engine.spawn([dt](simt::Process& p) {
      for (int k = 0; k < kSleepsPerProcess; ++k) p.sleep(dt);
    });
  }
  engine.run();
  r.wall_s = wall_now() - t0;
  r.counts = {{"events", engine.events_fired()},
              {"switches", engine.context_switches()}};
  return r;
}

/// simt spawn: sessions of one empty process per rank.
Replay replay_spawn(int n) {
  Replay r{"simt.spawn", {}, 0.0, 0.0};
  std::uint64_t switches = 0;
  const double t0 = wall_now();
  for (int round = 0; round < kSpawnRounds; ++round) {
    simt::Engine engine;
    for (int i = 0; i < n; ++i) engine.spawn([](simt::Process&) {});
    engine.run();
    switches += engine.context_switches();
  }
  r.wall_s = wall_now() - t0;
  const std::uint64_t spawned = static_cast<std::uint64_t>(kSpawnRounds) * n;
  r.counts = {{"spawned", spawned}, {"switches", switches}};
  r.unit = r.wall_s / static_cast<double>(spawned);
  return r;
}

/// parmsg: one SimTransport session of back-to-back barriers.
Replay replay_barrier(const machines::MachineSpec& m, int n) {
  Replay r{"parmsg.barrier", {}, 0.0, 0.0};
  parmsg::SimTransport transport(m.make_topology(n), m.costs);
  obs::Registry registry;
  transport.attach_metrics(&registry);
  const double t0 = wall_now();
  transport.run(n, [](parmsg::Comm& c) {
    for (int k = 0; k < kBarriers; ++k) c.barrier();
  });
  r.wall_s = wall_now() - t0;
  const obs::MetricsSnapshot s = registry.snapshot();
  auto count = [&s](const char* key) {
    const auto it = s.counters.find(key);
    return it == s.counters.end() ? std::uint64_t{0} : it->second;
  };
  r.counts = {{"barrier_calls", count("parmsg.barrier_calls")},
              {"events", count("simt.events_fired")},
              {"switches", count("simt.context_switches")}};
  r.unit = r.wall_s / kBarriers;
  return r;
}

/// pfsim: a few clients at once, each writing, then reading back, its
/// own region at every b_eff_io disk chunk size (well-formed and +8
/// byte variants), one chunk per request, on a file system sized for
/// all of the workload's ranks.
Replay replay_pfsim(const pfsim::IoSystemConfig& io, std::int64_t memory_per_node,
                    int n) {
  Replay r{"pfsim", {}, 0.0, 0.0};
  std::vector<std::int64_t> chunks;
  for (const auto& p : beffio::pattern_table(beffio::mpart_for_memory(memory_per_node))) {
    if (p.l > 0) chunks.push_back(p.l);
  }
  std::sort(chunks.begin(), chunks.end());
  chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
  std::int64_t region = 0;
  for (std::int64_t l : chunks) region += kRequestsPerSize * l;

  simt::Engine engine;
  pfsim::FileSystem fs(engine, io, n);
  const pfsim::FileId file = fs.open("e2ebench_replay");
  // Each client issues its requests back to back: the next one is
  // submitted from the completion of the previous.
  struct Client {
    pfsim::FileSystem* fs;
    std::vector<pfsim::FileSystem::Request> reqs;
    std::size_t next = 0;
    void issue() {
      if (next == reqs.size()) return;
      const auto req = reqs[next++];
      fs->submit(req, [this] { issue(); });
    }
  };
  const int active = std::min(n, kPfsimActiveClients);
  auto phase = [&](bool write) {
    std::vector<Client> clients(static_cast<std::size_t>(active));
    for (int c = 0; c < active; ++c) {
      Client& cl = clients[static_cast<std::size_t>(c)];
      cl.fs = &fs;
      std::int64_t off = region * c;
      for (std::int64_t l : chunks) {
        for (int k = 0; k < kRequestsPerSize; ++k) {
          pfsim::FileSystem::Request req;
          req.client = c;
          req.file = file;
          req.offset = off;
          req.bytes = l;
          req.write = write;
          cl.reqs.push_back(req);
          off += req.bytes;
        }
      }
    }
    for (auto& cl : clients) cl.issue();
    engine.run();
  };
  const double t0 = wall_now();
  phase(true);
  phase(false);
  r.wall_s = wall_now() - t0;
  const auto& st = fs.stats();
  r.counts = {{"requests", static_cast<std::uint64_t>(st.requests)},
              {"rmw_chunks", static_cast<std::uint64_t>(st.rmw_chunks)},
              {"read_cache_hits", static_cast<std::uint64_t>(st.read_cache_hits)},
              {"events", engine.events_fired()}};
  return r;
}

}  // namespace

ReplayResults run_replays(const Workload& w) {
  const machines::MachineSpec m = w.replay_machine();
  const int n = w.replay_nprocs();
  ReplayResults out;
  out.replays.push_back(replay_events(n));
  out.replays.push_back(replay_switches(n));
  out.replays.push_back(replay_spawn(n));
  out.replays.push_back(replay_net(m, n));
  out.replays.push_back(replay_barrier(m, n));
  out.replays.push_back(replay_pfsim(w.replay_io(), m.memory_per_proc, n));

  // Event dispatch is simt's share: the switch, net and pfsim unit
  // costs are the replay's time less its events at the measured
  // per-event cost, per counted operation.
  const double event_s = out.replays[0].unit;
  auto net_of_events = [event_s](Replay& r, const char* per) {
    const double rest = r.wall_s - static_cast<double>(r.counts.at("events")) * event_s;
    r.unit = std::max(0.0, rest) /
             static_cast<double>(std::max<std::uint64_t>(1, r.counts.at(per)));
    return r.unit;
  };
  out.event_ns = event_s * 1e9;
  out.switch_ns = net_of_events(out.replays[1], "switches") * 1e9;
  out.spawn_us = out.replays[2].unit * 1e6;
  out.resolve_us = net_of_events(out.replays[3], "resolves") * 1e6;
  out.flow_us = out.resolve_us * static_cast<double>(out.replays[3].counts.at("resolves")) /
                static_cast<double>(out.replays[3].counts.at("flows_done"));
  out.barrier_us = out.replays[4].unit * 1e6;
  out.request_us = net_of_events(out.replays[5], "requests") * 1e6;
  return out;
}

}  // namespace e2ebench
