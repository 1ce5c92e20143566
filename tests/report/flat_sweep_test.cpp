// The report sweep schedules every b_eff cell and b_eff_io chain of
// every partition as its own pool task.  These tests pin that flat
// schedule to an independent per-partition reference -- each partition
// run whole by the serial run_beff / run_beffio overloads on one
// transport -- and require the rendered markdown and the run record to
// be byte-identical at --jobs 1, 2 and 4: without faults, under a
// fault plan that degrades and fails cells, and when resuming from a
// journal that already holds some partitions.  Carries the `tsan`
// label: workers write many plans' slots concurrently.
#include "core/report/experiments.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/report/checkpoint.hpp"
#include "core/scenario/scenario.hpp"
#include "parmsg/sim_transport.hpp"
#include "robust/fault.hpp"

namespace balbench::report {
namespace {

/// Two b_eff partitions (one with analysis cells), two b_eff_io
/// partitions, a kernel suite and a two-point fault sweep: every task
/// kind of the flat list, small enough to run a dozen times.
const char* kScenario = R"({
  "schema": "balbench-scenario/1",
  "name": "flat-sweep-test",
  "sweep": {
    "beff": [
      { "machine": "t3e", "procs": [8], "analysis": true },
      { "machine": "sx5", "procs": [4] }
    ],
    "beffio": [
      { "machine": "t3e", "procs": [4], "scheduled_seconds": 15 },
      { "machine": "sx5", "procs": [2], "scheduled_seconds": 15 }
    ],
    "kernels": [ { "machine": "t3e", "procs": [8] } ]
  },
  "fault_sweep": {
    "machine": "t3e", "procs": 4, "link_rates": [0, 0.25],
    "degrade_factor": 0.5, "seed": 2001
  }
})";

constexpr Scope kScope = Scope::Quick;

const scenario::Scenario& test_scenario() {
  static const scenario::Scenario sc = scenario::parse_scenario_text(kScenario);
  return sc;
}

struct Rendered {
  std::string markdown;
  std::string record;
};

Rendered render(const ExperimentsData& data) {
  const std::string hash = config_hash(kScope, &test_scenario());
  Rendered out;
  std::ostringstream md;
  render_experiments_md(md, data, hash);
  out.markdown = md.str();
  std::ostringstream record;
  write_run_record(record, data, hash, "test-rev");
  out.record = record.str();
  return out;
}

ExperimentsData run_flat(int jobs, const robust::FaultPlan* plan,
                         const std::string& checkpoint = "") {
  ExperimentOptions opt;
  opt.scope = kScope;
  opt.jobs = jobs;
  opt.scenario = &test_scenario();
  opt.fault_plan = plan;
  opt.checkpoint_path = checkpoint;
  opt.resume = !checkpoint.empty();
  return run_experiments(opt);
}

/// The per-partition reference: every b_eff, fault-sweep and b_eff_io
/// partition of `shape` re-run whole, serially, on one transport.  The
/// kernel suites and the termination check are not partitioned, so
/// they are taken from `shape` as they are.
ExperimentsData per_partition(ExperimentsData shape,
                              const robust::FaultPlan* plan) {
  const scenario::Scenario& sc = test_scenario();
  auto beff_run = [&](const std::string& key, int nprocs, bool analysis,
                      const robust::FaultPlan* faults) {
    const machines::MachineSpec m = sc.resolve_machine(key);
    parmsg::SimTransport transport(m.make_topology(nprocs), m.costs);
    beff::BeffOptions opt;
    opt.memory_per_proc = m.memory_per_proc;
    opt.measure_analysis = analysis;
    opt.collect_metrics = true;
    opt.fault_plan = faults;
    return beff::run_beff(transport, nprocs, opt);
  };
  for (BeffRun& run : shape.beff) {
    run.r = beff_run(run.key, run.nprocs, run.first, plan);
  }
  for (FaultSweepRun& run : shape.fault_sweep) {
    run.r = beff_run(run.key, run.nprocs, false, &run.plan);
  }
  for (IoRun& run : shape.io) {
    const machines::MachineSpec m = sc.resolve_machine(run.key);
    parmsg::SimTransport transport(m.make_topology(run.nprocs), m.costs);
    beffio::BeffIoOptions opt;
    opt.scheduled_time = run.scheduled_seconds;
    opt.memory_per_node = m.memory_per_proc;
    opt.mpart_cap = run.mpart_cap;
    opt.file_prefix = m.short_name;
    opt.collect_metrics = true;
    opt.fault_plan = plan;
    run.r = beffio::run_beffio(transport, *m.io, run.nprocs, opt);
  }
  return shape;
}

void expect_identical(const Rendered& got, const Rendered& want, int jobs) {
  EXPECT_EQ(got.markdown, want.markdown) << "markdown differs at jobs " << jobs;
  EXPECT_EQ(got.record, want.record) << "run record differs at jobs " << jobs;
}

TEST(FlatSweep, MatchesPerPartitionRunsAtEveryJobs) {
  const ExperimentsData first = run_flat(1, nullptr);
  const Rendered want = render(per_partition(first, nullptr));
  expect_identical(render(first), want, 1);
  for (int jobs : {2, 4}) expect_identical(render(run_flat(jobs, nullptr)), want, jobs);
}

TEST(FlatSweep, MatchesPerPartitionRunsUnderFaults) {
  const robust::FaultPlan plan =
      robust::FaultPlan::parse("seed=7,io=0.003,link=0.1,retries=3");
  const ExperimentsData first = run_flat(1, &plan);
  const Rendered want = render(per_partition(first, &plan));
  // The plan must actually exercise both non-ok outcomes.
  EXPECT_NE(want.record.find("\"degraded\""), std::string::npos);
  EXPECT_NE(want.record.find("\"failed\""), std::string::npos);
  expect_identical(render(first), want, 1);
  for (int jobs : {2, 4}) expect_identical(render(run_flat(jobs, &plan)), want, jobs);
}

TEST(FlatSweep, ResumeReplaysJournaledPartitionsAndJournalsTheRest) {
  const ExperimentsData reference = per_partition(run_flat(1, nullptr), nullptr);
  const Rendered want = render(reference);
  const std::string key = config_hash(kScope, &test_scenario());
  for (int jobs : {1, 2, 4}) {
    const std::string path = ::testing::TempDir() + "flat_sweep_ck_" +
                             std::to_string(jobs) + ".json";
    std::remove(path.c_str());
    {
      // A journal left by an interrupted sweep: one partition of each
      // kind already complete.
      Checkpoint ck(path, key, /*resume=*/false);
      ck.record_beff("beff/1", reference.beff[1].r);
      ck.record_beff("faultsweep/0", reference.fault_sweep[0].r);
      ck.record_io("io/0", reference.io[0].r);
    }
    expect_identical(render(run_flat(jobs, nullptr, path)), want, jobs);
    // Every partition the resumed sweep ran was journaled when its
    // last cell finished.
    const Checkpoint after(path, key, /*resume=*/true);
    for (const char* task : {"beff/0", "beff/1", "faultsweep/0",
                             "faultsweep/1", "io/0", "io/1"}) {
      EXPECT_TRUE(after.has(task)) << task << " at jobs " << jobs;
    }
    EXPECT_EQ(after.recorded(), 0u);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace balbench::report
