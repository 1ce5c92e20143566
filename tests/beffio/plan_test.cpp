// BeffIoPlan contract: chains may run in any order, each on its own
// fresh transport (and so its own file system), and finish() still
// reduces to exactly what the serial overload produces -- the report
// and the merged metrics snapshot byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/beffio/beffio.hpp"
#include "machines/machines.hpp"
#include "parmsg/sim_transport.hpp"
#include "robust/fault.hpp"

namespace bi = balbench::beffio;
namespace bm = balbench::machines;
namespace bo = balbench::obs;
namespace bp = balbench::parmsg;

namespace {

constexpr int kProcs = 4;

const bm::MachineSpec& machine() {
  static const bm::MachineSpec m = bm::cray_t3e_900();
  return m;
}

bi::BeffIoOptions plan_options() {
  bi::BeffIoOptions opt;
  opt.scheduled_time = 30.0;  // reduced T, same code paths
  opt.memory_per_node = machine().memory_per_proc;
  opt.include_random_type = true;  // all four chains
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

bi::BeffIoResult run_serial(const bi::BeffIoOptions& opt) {
  auto transport = fresh_transport();
  return bi::run_beffio(*transport, *machine().io, kProcs, opt);
}

/// Runs the plan's chains in `order`, each on a fresh transport.
bi::BeffIoResult run_in_order(const bi::BeffIoOptions& opt,
                              const std::vector<std::size_t>& order) {
  bi::BeffIoPlan plan(*machine().io, kProcs, opt);
  EXPECT_EQ(plan.num_cells(), order.size());
  for (std::size_t i : order) {
    auto transport = fresh_transport();
    plan.run_cell(i, *transport);
  }
  return plan.finish();
}

std::vector<std::size_t> shuffled() {
  std::vector<std::size_t> v(4);
  std::iota(v.begin(), v.end(), std::size_t{0});
  std::shuffle(v.begin(), v.end(), std::mt19937(20011));
  return v;
}

void expect_same(const bi::BeffIoResult& got, const bi::BeffIoResult& want) {
  EXPECT_EQ(bi::beffio_report(got), bi::beffio_report(want));
  EXPECT_EQ(dump(got.metrics), dump(want.metrics));
  EXPECT_EQ(got.b_eff_io, want.b_eff_io);
  EXPECT_EQ(got.benchmark_seconds, want.benchmark_seconds);
  EXPECT_EQ(got.segment_bytes, want.segment_bytes);
  ASSERT_EQ(got.chain_status.size(), want.chain_status.size());
  for (std::size_t i = 0; i < got.chain_status.size(); ++i) {
    EXPECT_EQ(got.chain_status[i].outcome, want.chain_status[i].outcome) << i;
    EXPECT_EQ(got.chain_status[i].attempts, want.chain_status[i].attempts) << i;
  }
  EXPECT_EQ(got.chain_labels, want.chain_labels);
}

}  // namespace

TEST(BeffIoPlan, CountsChains) {
  bi::BeffIoOptions opt = plan_options();
  EXPECT_EQ(bi::BeffIoPlan(*machine().io, kProcs, opt).num_cells(), 4u);
  opt.include_random_type = false;
  EXPECT_EQ(bi::BeffIoPlan(*machine().io, kProcs, opt).num_cells(), 3u);
  EXPECT_THROW(bi::BeffIoPlan(*machine().io, 0, opt), std::invalid_argument);
  opt.scheduled_time = 0.0;
  EXPECT_THROW(bi::BeffIoPlan(*machine().io, kProcs, opt), std::invalid_argument);
}

TEST(BeffIoPlan, ReverseOrderMatchesSerialOverload) {
  const bi::BeffIoOptions opt = plan_options();
  const bi::BeffIoResult want = run_serial(opt);
  ASSERT_FALSE(want.metrics.empty());
  expect_same(run_in_order(opt, {3, 2, 1, 0}), want);
}

TEST(BeffIoPlan, ShuffledOrderMatchesSerialOverload) {
  const bi::BeffIoOptions opt = plan_options();
  expect_same(run_in_order(opt, shuffled()), run_serial(opt));
}

TEST(BeffIoPlan, ShuffledOrderMatchesSerialOverloadUnderFaults) {
  const auto plan = balbench::robust::FaultPlan::parse("seed=7,io=0.5,retries=2");
  bi::BeffIoOptions opt = plan_options();
  opt.fault_plan = &plan;
  const bi::BeffIoResult want = run_serial(opt);
  ASSERT_EQ(want.chain_status.size(), 4u);
  expect_same(run_in_order(opt, shuffled()), want);
}
