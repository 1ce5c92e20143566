// BeffPlan contract: cells may run in any order, each on its own fresh
// transport, and finish() still reduces to exactly what the serial
// overload produces -- the protocol report and the merged metrics
// snapshot byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/beff/beff.hpp"
#include "machines/machines.hpp"
#include "parmsg/sim_transport.hpp"
#include "robust/fault.hpp"

namespace bb = balbench::beff;
namespace bm = balbench::machines;
namespace bo = balbench::obs;
namespace bp = balbench::parmsg;

namespace {

constexpr int kProcs = 8;

const bm::MachineSpec& machine() {
  static const bm::MachineSpec m = bm::cray_t3e_900();
  return m;
}

bb::BeffOptions plan_options() {
  bb::BeffOptions opt;
  opt.memory_per_proc = machine().memory_per_proc;
  opt.lmax_override = 64 * 1024;  // reduced sweep, same code paths
  opt.measure_analysis = true;
  opt.collect_metrics = true;
  return opt;
}

/// Exact text form of a snapshot: doubles as hex floats, so equal
/// strings mean bit-equal values.
std::string dump(const bo::MetricsSnapshot& m) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [k, v] : m.counters) os << k << ' ' << v << '\n';
  for (const auto& [k, v] : m.sums) os << k << ' ' << v << '\n';
  for (const auto& [k, v] : m.gauges) os << k << ' ' << v << '\n';
  for (const auto& [k, h] : m.histograms) {
    os << k << ' ' << h.count << ' ' << h.sum << ' ' << h.max;
    for (const auto& [index, count] : h.buckets) os << ' ' << index << ':' << count;
    os << '\n';
  }
  return os.str();
}

std::unique_ptr<bp::SimTransport> fresh_transport() {
  return std::make_unique<bp::SimTransport>(machine().make_topology(kProcs),
                                            machine().costs);
}

bb::BeffResult run_serial(const bb::BeffOptions& opt) {
  auto transport = fresh_transport();
  return bb::run_beff(*transport, kProcs, opt);
}

/// Runs the plan's cells in `order`, each on a fresh transport.
bb::BeffResult run_in_order(const bb::BeffOptions& opt,
                            std::vector<std::size_t> (*order)(std::size_t)) {
  bb::BeffPlan plan(kProcs, opt);
  for (std::size_t i : order(plan.num_cells())) {
    auto transport = fresh_transport();
    plan.run_cell(i, *transport);
  }
  return plan.finish();
}

std::vector<std::size_t> reversed(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.rbegin(), v.rend(), std::size_t{0});
  return v;
}

std::vector<std::size_t> shuffled(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  std::shuffle(v.begin(), v.end(), std::mt19937(20011));
  return v;
}

void expect_same(const bb::BeffResult& got, const bb::BeffResult& want) {
  EXPECT_EQ(bb::protocol_report(got), bb::protocol_report(want));
  EXPECT_EQ(dump(got.metrics), dump(want.metrics));
  EXPECT_EQ(got.b_eff, want.b_eff);
  EXPECT_EQ(got.benchmark_seconds, want.benchmark_seconds);
  ASSERT_EQ(got.cell_status.size(), want.cell_status.size());
  for (std::size_t i = 0; i < got.cell_status.size(); ++i) {
    EXPECT_EQ(got.cell_status[i].outcome, want.cell_status[i].outcome) << i;
    EXPECT_EQ(got.cell_status[i].attempts, want.cell_status[i].attempts) << i;
  }
  EXPECT_EQ(got.cell_labels, want.cell_labels);
}

}  // namespace

TEST(BeffPlan, CountsPatternAndAnalysisCells) {
  bb::BeffOptions opt = plan_options();
  EXPECT_EQ(bb::BeffPlan(kProcs, opt).num_cells(), 47u);  // 12 x 3 + 11
  opt.measure_analysis = false;
  EXPECT_EQ(bb::BeffPlan(kProcs, opt).num_cells(), 36u);
  EXPECT_THROW(bb::BeffPlan(1, opt), std::invalid_argument);
}

TEST(BeffPlan, ReverseOrderMatchesSerialOverload) {
  const bb::BeffOptions opt = plan_options();
  const bb::BeffResult want = run_serial(opt);
  ASSERT_FALSE(want.metrics.empty());
  expect_same(run_in_order(opt, reversed), want);
}

TEST(BeffPlan, ShuffledOrderMatchesSerialOverload) {
  const bb::BeffOptions opt = plan_options();
  expect_same(run_in_order(opt, shuffled), run_serial(opt));
}

TEST(BeffPlan, ShuffledOrderMatchesSerialOverloadUnderFaults) {
  // Link and stall faults perturb every cell; dropping rank 3 late in
  // virtual time fails only the cells that run that long.
  const auto plan = balbench::robust::FaultPlan::parse(
      "seed=5,link=0.3,stall=0.2,drop-rank=3,drop-after=0.05,retries=2");
  bb::BeffOptions opt = plan_options();
  opt.fault_plan = &plan;
  const bb::BeffResult want = run_serial(opt);
  ASSERT_EQ(want.cell_status.size(), 47u);
  int failed = 0;
  for (const auto& s : want.cell_status) {
    failed += s.outcome == balbench::robust::Outcome::Failed ? 1 : 0;
  }
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, 47);
  expect_same(run_in_order(opt, shuffled), want);
}

TEST(BeffPlan, RunCellRejectsTooSmallTransport) {
  bb::BeffPlan plan(kProcs, plan_options());
  bp::SimTransport small(machine().make_topology(4), machine().costs);
  EXPECT_THROW(plan.run_cell(0, small), std::invalid_argument);
}
