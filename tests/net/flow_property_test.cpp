// Property-based tests of the max-min flow solver: conservation and
// fairness invariants over randomized workloads, and the max-min
// certificate after every resolve.
#include <gtest/gtest.h>

#include <cmath>
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

struct FlowRecord {
  int src;
  int dst;
  double bytes;
  double start;
  double done = -1.0;
};

}  // namespace

class FlowProperties : public ::testing::TestWithParam<int> {};

TEST_P(FlowProperties, RandomWorkloadCompletesAndRespectsCapacity) {
  const int seed = GetParam();
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(seed));

  bn::Torus3DParams p;
  p.dims[0] = 4;
  p.dims[1] = 4;
  p.dims[2] = 2;
  p.nic_bw = 100e6;
  p.duplex_factor = 1.3;
  p.link_bw = 150e6;
  p.base_latency = 5e-6;
  auto topo = bn::make_torus3d(p);
  const int n = topo->num_endpoints();

  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  int fills = 0;
  bn::FlowNetworkTestPeer::on_fill(net, [&](const bn::FillRecord&) {
    ++fills;
    const bn::ActiveState st = bn::FlowNetworkTestPeer::active(net);
    EXPECT_EQ(bn::maxmin_violation(topo->links(), st.paths, st.rates), "")
        << "after fill " << fills;
  });

  std::vector<FlowRecord> flows;
  const int nflows = 20 + static_cast<int>(rng.below(40));
  for (int i = 0; i < nflows; ++i) {
    FlowRecord f;
    f.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    do {
      f.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    } while (f.dst == f.src);
    f.bytes = 1000.0 + static_cast<double>(rng.below(5'000'000));
    f.start = rng.uniform() * 0.01;
    flows.push_back(f);
  }
  for (auto& f : flows) {
    eng.schedule_at(f.start, [&net, &f] {
      net.start_flow(f.src, f.dst, f.bytes, [&f](bs::Time t) { f.done = t; });
    });
  }
  eng.run();

  double total_bytes = 0.0;
  double max_done = 0.0;
  for (const auto& f : flows) {
    // Every flow completes, after its start plus its wire latency.
    ASSERT_GT(f.done, 0.0) << "flow " << f.src << "->" << f.dst;
    EXPECT_GE(f.done, f.start + p.base_latency * 0.99);
    // No flow beats its own bottleneck: even alone it cannot move
    // faster than the NIC.
    const double min_time = f.bytes / p.nic_bw;
    EXPECT_GE(f.done - f.start, min_time * 0.99);
    total_bytes += f.bytes;
    max_done = std::max(max_done, f.done);
  }
  // Aggregate conservation: the whole workload cannot finish faster
  // than the total bytes over the sum of all NIC egress capacity.
  EXPECT_GE(max_done, total_bytes / (p.nic_bw * n) * 0.99);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(fills, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowProperties, ::testing::Range(1, 13));

class FlowFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowFairness, IdenticalFlowsFinishSimultaneously) {
  const int nflows = GetParam();
  bn::CrossbarParams p;
  p.processes = nflows + 1;
  p.port_bw = 100e6;
  p.latency_sec = 0.0;
  auto topo = bn::make_crossbar(p);
  bs::Engine eng;
  bn::FlowNetwork net(*topo, eng);
  std::vector<double> done(static_cast<std::size_t>(nflows), -1.0);
  for (int i = 0; i < nflows; ++i) {
    // All flows leave endpoint 0: its tx port is the shared bottleneck.
    net.start_flow(0, i + 1, 1e6, [&done, i](bs::Time t) {
      done[static_cast<std::size_t>(i)] = t;
    });
  }
  eng.run();
  for (int i = 1; i < nflows; ++i) {
    EXPECT_NEAR(done[static_cast<std::size_t>(i)], done[0], 1e-9);
  }
  // Fair share: n flows over one 100 MB/s port.
  EXPECT_NEAR(done[0], nflows * 1e6 / 100e6, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Counts, FlowFairness, ::testing::Values(2, 3, 7, 16));
