// Randomized equivalence tests for the incremental flow solver: the
// same workload driven through a kFullOnly network and through a
// kIncremental network (with the debug cross-check armed) must produce
// identical completion times.  Bandwidths and byte counts are chosen as
// exact binary values so fair shares tie exactly and the comparison can
// demand bitwise-equal doubles.  Every fill of every run is also
// checked against the reference progressive fill (bitwise) and the
// committed allocation against the max-min certificate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "flow_test_peer.hpp"
#include "maxmin_certificate.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "simt/engine.hpp"
#include "util/rng.hpp"

namespace bn = balbench::net;
namespace bs = balbench::simt;
namespace bu = balbench::util;

namespace {

struct TimedFlow {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  double start = 0.0;
};

struct RunStats {
  std::vector<double> done;
  std::uint64_t resolves = 0;
  std::uint64_t incremental = 0;
  std::uint64_t full = 0;
  std::uint64_t fills_checked = 0;
};

/// After every resolve of `net`: the fill equals the reference fill bit
/// for bit, its flow set is closed under link sharing, and the whole
/// committed allocation passes the max-min certificate.
void check_every_fill(bn::FlowNetwork& net, const bn::Topology& topo,
                      std::uint64_t& fills) {
  bn::FlowNetworkTestPeer::on_fill(net, [&net, &topo, &fills](
                                            const bn::FillRecord& rec) {
    ++fills;
    EXPECT_EQ(bn::fill_mismatch(topo.links(), rec), "") << "fill " << fills;
    const bn::ActiveState st = bn::FlowNetworkTestPeer::active(net);
    EXPECT_EQ(bn::maxmin_violation(topo.links(), st.paths, st.rates), "")
        << "after fill " << fills;
  });
}

/// Drive `flows` through a fresh FlowNetwork on `topo` and collect each
/// flow's completion time (indexed like `flows`).
RunStats run_workload(const bn::Topology& topo,
                      const std::vector<TimedFlow>& flows,
                      bn::FlowNetwork::SolverMode mode, bool crosscheck) {
  bs::Engine eng;
  bn::FlowNetwork net(topo, eng);
  net.set_solver_mode(mode);
  net.set_crosscheck(crosscheck);
  RunStats out;
  check_every_fill(net, topo, out.fills_checked);
  out.done.assign(flows.size(), -1.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const TimedFlow& f = flows[i];
    eng.schedule_at(f.start, [&net, &out, &f, i] {
      net.start_flow(f.src, f.dst, f.bytes,
                     [&out, i](bs::Time t) { out.done[i] = t; });
    });
  }
  eng.run();
  EXPECT_EQ(net.active_flows(), 0u);
  out.resolves = net.resolves();
  out.incremental = net.incremental_resolves();
  out.full = net.full_resolves();
  EXPECT_GT(out.fills_checked, 0u);
  return out;
}

void expect_identical(const bn::Topology& topo,
                      const std::vector<TimedFlow>& flows) {
  const RunStats full =
      run_workload(topo, flows, bn::FlowNetwork::SolverMode::kFullOnly, false);
  const RunStats inc = run_workload(
      topo, flows, bn::FlowNetwork::SolverMode::kIncremental, true);
  ASSERT_EQ(full.done.size(), inc.done.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ASSERT_GT(full.done[i], 0.0) << "flow " << i << " never completed (full)";
    EXPECT_DOUBLE_EQ(full.done[i], inc.done[i])
        << "flow " << i << " (" << flows[i].src << "->" << flows[i].dst
        << ", " << flows[i].bytes << " B @ t=" << flows[i].start << ")";
  }
  EXPECT_EQ(full.incremental, 0u);
  EXPECT_EQ(inc.resolves, inc.incremental + inc.full);
}

/// Exact binary start times: k / 1024 seconds.
double exact_start(bu::Xoshiro256& rng) {
  return static_cast<double>(rng.below(64)) / 1024.0;
}

}  // namespace

TEST(FlowIncremental, ComponentMergeThenSplitMatchesFull) {
  bn::CrossbarParams p;
  p.processes = 6;
  p.port_bw = 1024.0;
  p.latency_sec = 0.0;
  auto topo = bn::make_crossbar(p);
  // Two link-disjoint flows, then a bridge 0->3 that shares the tx port
  // of the first and the rx port of the second, merging the components;
  // the bridge is small enough to finish first, splitting them again.
  std::vector<TimedFlow> flows = {
      {0, 1, 1 << 20, 0.0},
      {2, 3, 1 << 20, 0.0},
      {0, 3, 1 << 12, 1.0 / 8.0},
      // Late disjoint arrival while the merge is live.
      {4, 5, 1 << 16, 1.0 / 4.0},
  };
  expect_identical(*topo, flows);
}

TEST(FlowIncremental, DisjointPairsTakeTheIncrementalPath) {
  bn::CrossbarParams p;
  p.processes = 8;
  p.port_bw = 2048.0;
  p.latency_sec = 0.0;
  auto topo = bn::make_crossbar(p);
  // Four link-disjoint pairs arriving at distinct instants: after the
  // first resolve, every later one only touches a one-flow component.
  std::vector<TimedFlow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back({2 * i, 2 * i + 1, 1 << 18,
                     static_cast<double>(i) / 64.0});
  }
  const RunStats inc = run_workload(
      *topo, flows, bn::FlowNetwork::SolverMode::kIncremental, true);
  // Exactly: the first arrival is a full solve (its component is the
  // whole network); the three later arrivals and the three departures
  // that leave flows behind each touch one component only.
  EXPECT_EQ(inc.resolves, 7u);
  EXPECT_EQ(inc.full, 1u);
  EXPECT_EQ(inc.incremental, 6u);
  for (double d : inc.done) EXPECT_GT(d, 0.0);
}

class FlowIncrementalRandom : public ::testing::TestWithParam<int> {};

TEST_P(FlowIncrementalRandom, TorusWorkloadMatchesFull) {
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  bn::Torus3DParams p;
  p.dims[0] = 4;
  p.dims[1] = 4;
  p.dims[2] = 2;
  p.nic_bw = 1 << 27;
  p.duplex_factor = 1.25;
  p.link_bw = 1 << 28;
  p.base_latency = 1.0 / (1 << 20);
  p.per_hop_latency = 1.0 / (1 << 22);
  auto topo = bn::make_torus3d(p);
  const auto n = static_cast<std::uint64_t>(topo->num_endpoints());

  std::vector<TimedFlow> flows;
  const int nflows = 24 + static_cast<int>(rng.below(24));
  for (int i = 0; i < nflows; ++i) {
    TimedFlow f;
    f.src = static_cast<int>(rng.below(n));
    do {
      f.dst = static_cast<int>(rng.below(n));
    } while (f.dst == f.src);
    f.bytes = static_cast<double>((1 + rng.below(64)) << 12);
    f.start = exact_start(rng);
    flows.push_back(f);
  }
  expect_identical(*topo, flows);
}

TEST_P(FlowIncrementalRandom, AdjacencyWorkloadMatchesFull) {
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919u);
  // Random sparse switch graph: a ring (keeps it connected) plus a few
  // chords, two endpoints attached per switch.
  bn::AdjacencyParams p;
  p.nodes = 8;
  p.port_bw = 4096.0;
  p.latency_sec = 1.0 / (1 << 16);
  p.per_hop_latency = 1.0 / (1 << 18);
  for (int i = 0; i < p.nodes; ++i) {
    p.edges.push_back({i, (i + 1) % p.nodes, 8192.0});
    p.attach.push_back(i);
    p.attach.push_back(i);
  }
  for (int c = 0; c < 3; ++c) {
    const int a = static_cast<int>(rng.below(8));
    const int b = static_cast<int>(rng.below(8));
    if (a != b) p.edges.push_back({a, b, 4096.0});
  }
  auto topo = bn::make_adjacency(p);
  const auto n = static_cast<std::uint64_t>(topo->num_endpoints());

  std::vector<TimedFlow> flows;
  const int nflows = 16 + static_cast<int>(rng.below(16));
  for (int i = 0; i < nflows; ++i) {
    TimedFlow f;
    f.src = static_cast<int>(rng.below(n));
    do {
      f.dst = static_cast<int>(rng.below(n));
    } while (f.dst == f.src);
    f.bytes = static_cast<double>((1 + rng.below(256)) << 8);
    f.start = exact_start(rng);
    flows.push_back(f);
  }
  expect_identical(*topo, flows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowIncrementalRandom, ::testing::Range(1, 9));

TEST(FlowIncremental, EnvVarForcesFullSolver) {
  bn::CrossbarParams p;
  p.processes = 2;
  p.port_bw = 1024.0;
  auto topo = bn::make_crossbar(p);
  bs::Engine eng;
  ::setenv("BALBENCH_FLOW_SOLVER", "full", 1);
  bn::FlowNetwork forced(*topo, eng);
  ::unsetenv("BALBENCH_FLOW_SOLVER");
  EXPECT_EQ(forced.solver_mode(), bn::FlowNetwork::SolverMode::kFullOnly);
  bn::FlowNetwork plain(*topo, eng);
  EXPECT_EQ(plain.solver_mode(), bn::FlowNetwork::SolverMode::kIncremental);
}
