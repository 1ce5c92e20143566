// The max-min fill against the reference progressive fill
// (flow_test_peer.hpp) on shapes the randomized torus and adjacency
// workloads do not pin down:
//   * the I/O fabric star pfsim builds (client port -> fabric -> server
//     port, ports shared by both directions);
//   * near-tie ("drift zone") instances, where a freeze inside a round
//     pushes another link's share out of the 1e-12 tie band, so a flow
//     that was a bottleneck candidate at the start of the round is not
//     frozen in it; one where rounding pulls a link *into* the band
//     mid-round; and random instances with every share near a tie;
//   * a zero-capacity link, which must still surface as the zero-rate
//     error (exact incremental-path counts for disjoint components are
//     in flow_incremental_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
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

/// A topology given as a link table and a routing function; zero
/// latency, so flows started together arrive together.
class TableTopology final : public bn::Topology {
 public:
  using Router = std::function<void(int, int, std::vector<bn::LinkId>&)>;

  TableTopology(int endpoints, std::vector<bn::Link> links, Router router)
      : endpoints_(endpoints), links_(std::move(links)),
        router_(std::move(router)) {}

  int num_endpoints() const override { return endpoints_; }
  const std::vector<bn::Link>& links() const override { return links_; }
  void route(int src, int dst, std::vector<bn::LinkId>& out) const override {
    out.clear();
    if (src != dst) router_(src, dst, out);
  }
  double latency(int, int) const override { return 0.0; }
  double self_bandwidth() const override { return 1e9; }
  std::string describe() const override { return "table"; }

 private:
  int endpoints_;
  std::vector<bn::Link> links_;
  Router router_;
};

struct Transfer {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  double start = 0.0;
};

struct Outcome {
  std::vector<std::vector<double>> fills;  // every fill's rates, in order
  std::vector<double> done;
};

/// Runs `transfers` with every fill checked against the reference fill
/// (bitwise) and every committed allocation against the certificate.
Outcome run_checked(const bn::Topology& topo,
                    const std::vector<Transfer>& transfers,
                    bn::FlowNetwork::SolverMode mode) {
  bs::Engine eng;
  bn::FlowNetwork net(topo, eng);
  net.set_solver_mode(mode);
  Outcome out;
  bn::FlowNetworkTestPeer::on_fill(net, [&](const bn::FillRecord& rec) {
    EXPECT_EQ(bn::fill_mismatch(topo.links(), rec), "")
        << "fill " << out.fills.size();
    const bn::ActiveState st = bn::FlowNetworkTestPeer::active(net);
    EXPECT_EQ(bn::maxmin_violation(topo.links(), st.paths, st.rates), "")
        << "fill " << out.fills.size();
    out.fills.push_back(*rec.rates);
  });
  out.done.assign(transfers.size(), -1.0);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    eng.schedule_at(t.start, [&net, &out, &t, i] {
      net.start_flow(t.src, t.dst, t.bytes,
                     [&out, i](bs::Time at) { out.done[i] = at; });
    });
  }
  eng.run();
  EXPECT_EQ(net.active_flows(), 0u);
  for (double d : out.done) EXPECT_GT(d, 0.0);
  return out;
}

// ---------------------------------------------------------------------------
// I/O fabric star.

class FlowFillIoStar : public ::testing::TestWithParam<int> {};

TEST_P(FlowFillIoStar, EveryFillMatchesReference) {
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const int clients = 12;
  const int servers = 4;
  std::vector<bn::Link> links;
  for (int i = 0; i < clients; ++i) links.push_back({"client", 100e6});
  for (int j = 0; j < servers; ++j) links.push_back({"server", 250e6});
  const auto fabric = static_cast<bn::LinkId>(links.size());
  links.push_back({"fabric", 600e6});
  // Endpoint e's port is link e; every route crosses the fabric.
  const TableTopology topo(clients + servers, links,
                           [fabric](int src, int dst, auto& out) {
                             out.push_back(src);
                             out.push_back(fabric);
                             out.push_back(dst);
                           });
  std::vector<Transfer> transfers;
  for (int k = 0; k < 96; ++k) {
    Transfer t;
    const int client = static_cast<int>(rng.below(clients));
    const int server = clients + static_cast<int>(rng.below(servers));
    const bool write = rng.below(3) != 0;
    t.src = write ? client : server;
    t.dst = write ? server : client;
    t.bytes = static_cast<double>((1 + rng.below(64)) << 14);
    t.start = static_cast<double>(rng.below(32)) / 256.0;
    transfers.push_back(t);
  }
  const Outcome inc =
      run_checked(topo, transfers, bn::FlowNetwork::SolverMode::kIncremental);
  const Outcome full =
      run_checked(topo, transfers, bn::FlowNetwork::SolverMode::kFullOnly);
  EXPECT_GT(inc.fills.size(), 10u);
  EXPECT_EQ(inc.done, full.done);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowFillIoStar, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Drift zone.  Link A (2 GB/s) carries flows a and b, link B carries
// a and c at a share `delta` above A's; the private ports of b and c
// never bind.  With delta inside the 1e-12 tie band both links start
// the first round as bottlenecks.  Freezing `a` at A's share leaves B
// with residual 2*share*(1+delta) - share for one flow, i.e. a share
// 2*delta above A's: out of the band when delta > 0.5e-12, so a `c`
// visited after `a` is not frozen in that round.

std::vector<double> drift_first_fill(double delta,
                                     const std::vector<int>& order) {
  enum : bn::LinkId { kA, kB, kPortB, kPortC };
  const std::vector<bn::Link> links = {{"A", 2e9},
                                       {"B", 2e9 * (1.0 + delta)},
                                       {"port-b", 1e12},
                                       {"port-c", 1e12}};
  // Flow k runs from endpoint 2k to 2k+1.
  const TableTopology topo(6, links, [](int src, int, auto& out) {
    switch (src / 2) {
      case 0: out = {kA, kB}; break;      // a
      case 1: out = {kA, kPortB}; break;  // b
      default: out = {kB, kPortC}; break; // c
    }
  });
  std::vector<Transfer> transfers;
  for (int k : order) transfers.push_back({2 * k, 2 * k + 1, 1e9, 0.0});
  const Outcome out =
      run_checked(topo, transfers, bn::FlowNetwork::SolverMode::kIncremental);
  EXPECT_FALSE(out.fills.empty());
  if (out.fills.empty()) return {};
  // Report the first fill's rates by flow (a, b, c), not arrival order.
  std::vector<double> by_flow(3);
  for (std::size_t i = 0; i < order.size(); ++i) {
    by_flow[static_cast<std::size_t>(order[i])] = out.fills[0][i];
  }
  return by_flow;
}

TEST(FlowFillDrift, FreezeMidRoundPushesLinkOutOfTieBand) {
  const auto r = drift_first_fill(0.6e-12, {0, 1, 2});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 1e9);
  EXPECT_EQ(r[1], 1e9);
  EXPECT_GT(r[2], 1e9) << "c froze in round one despite B leaving the band";
}

TEST(FlowFillDrift, CandidateVisitedFirstFreezesInTieBand) {
  // c arrives first: it is tested while B is still in the band.
  const auto r = drift_first_fill(0.6e-12, {2, 0, 1});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 1e9);
  EXPECT_EQ(r[1], 1e9);
  EXPECT_EQ(r[2], 1e9);
}

TEST(FlowFillDrift, LinkStaysInBandBelowHalfTheTolerance) {
  const auto r = drift_first_fill(0.4e-12, {0, 1, 2});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[2], 1e9);
}

TEST(FlowFillDrift, RoundingPullsLinkIntoBandMidRound) {
  // In exact arithmetic a freeze never lowers a link's share, but the
  // rounded residual updates can.  Here 30000 flows f_i each cross a
  // private link of capacity m (share exactly m, the round's minimum)
  // and the shared link B, whose share starts one ulp above the band.
  // After ten freezes at m, B's rounded share is exactly the band edge
  // (values found by search), so flow g -- on B and a port that never
  // binds, arriving right after those ten -- freezes in round one.
  const int k = 30000;
  const double m = 0x1.71e0c0640deb8p-1;
  const double b_capacity = 0x1.52a507e51c7b0p+14;
  std::vector<bn::Link> links(static_cast<std::size_t>(k), {"private", m});
  const auto kB = static_cast<bn::LinkId>(k);
  links.push_back({"B", b_capacity});
  links.push_back({"port-g", 1e6});
  // Endpoint 2i -> 2i+1 is f_i; endpoint 2k -> 2k+1 is g.
  const TableTopology topo(2 * k + 2, links, [k, kB](int src, int, auto& out) {
    const int flow = src / 2;
    if (flow < k) {
      out = {static_cast<bn::LinkId>(flow), kB};
    } else {
      out = {kB, kB + 1};
    }
  });
  std::vector<Transfer> transfers;
  for (int i = 0; i < k; ++i) {
    if (i == 10) transfers.push_back({2 * k, 2 * k + 1, 1e3, 0.0});
    transfers.push_back({2 * i, 2 * i + 1, 1e3, 0.0});
  }
  const Outcome out =
      run_checked(topo, transfers, bn::FlowNetwork::SolverMode::kIncremental);
  ASSERT_FALSE(out.fills.empty());
  ASSERT_EQ(out.fills[0].size(), static_cast<std::size_t>(k + 1));
  EXPECT_EQ(out.fills[0][10], m) << "g did not freeze in round one";
  EXPECT_EQ(out.fills[0][11], m);
}

class FlowFillNearTies : public ::testing::TestWithParam<int> {};

TEST_P(FlowFillNearTies, EveryFillMatchesReference) {
  // Random 2-3 link paths over 10 links whose capacities put every
  // link's initial share within 1.2e-12 of 1 GB/s: nearly every link
  // starts in the tie band, and freezes keep pushing links out of it.
  bu::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 104729u);
  const int nlinks = 10;
  const int nflows = 40;
  std::vector<std::vector<bn::LinkId>> paths;
  std::vector<int> count(nlinks, 0);
  for (int f = 0; f < nflows; ++f) {
    std::vector<bn::LinkId> path;
    const int hops = 2 + static_cast<int>(rng.below(2));
    while (static_cast<int>(path.size()) < hops) {
      const auto l = static_cast<bn::LinkId>(rng.below(nlinks));
      if (std::find(path.begin(), path.end(), l) == path.end()) {
        path.push_back(l);
      }
    }
    for (bn::LinkId l : path) ++count[static_cast<std::size_t>(l)];
    paths.push_back(path);
  }
  std::vector<bn::Link> links;
  for (int l = 0; l < nlinks; ++l) {
    const double skew = 1.0 + static_cast<double>(rng.below(5)) * 0.3e-12;
    links.push_back({"l", std::max(count[static_cast<std::size_t>(l)], 1) *
                              1e9 * skew});
  }
  // Flow f runs from endpoint 2f to 2f+1.
  const TableTopology topo(2 * nflows, links,
                           [&paths](int src, int, auto& out) {
                             out = paths[static_cast<std::size_t>(src / 2)];
                           });
  std::vector<Transfer> transfers;
  for (int f = 0; f < nflows; ++f) {
    transfers.push_back({2 * f, 2 * f + 1,
                         static_cast<double>((1 + rng.below(16)) << 20), 0.0});
  }
  const Outcome out =
      run_checked(topo, transfers, bn::FlowNetwork::SolverMode::kIncremental);
  EXPECT_GT(out.fills.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowFillNearTies, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Edge cases.

TEST(FlowFillEdge, ZeroCapacityLinkStillRaisesZeroRate) {
  const TableTopology topo(2, {{"dead", 0.0}, {"live", 1e9}},
                           [](int, int, auto& out) { out = {1, 0}; });
  bs::Engine eng;
  bn::FlowNetwork net(topo, eng);
  net.start_flow(0, 1, 1e6, [](bs::Time) {});
  try {
    eng.run();
    FAIL() << "zero-capacity path did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("flow allocated zero rate"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
