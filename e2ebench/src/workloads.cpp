// The three workloads, each run through the public entry point the
// pipeline itself uses, with obs metrics collected.
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/beff/beff.hpp"
#include "core/beffio/beffio.hpp"
#include "core/report/experiments.hpp"
#include "core/scenario/scenario.hpp"
#include "e2ebench.hpp"
#include "parmsg/sim_transport.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace e2ebench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Builds the machine's topology and a transport over it, timing the
/// two steps apart.
std::unique_ptr<parmsg::SimTransport> build_transport(
    const machines::MachineSpec& m, int nprocs, SetupTimes* t) {
  const double t0 = wall_now();
  auto topo = m.make_topology(nprocs);
  const double t1 = wall_now();
  auto transport = std::make_unique<parmsg::SimTransport>(std::move(topo), m.costs);
  const double t2 = wall_now();
  t->topology_build_s += t1 - t0;
  t->transport_setup_s += t2 - t1;
  return transport;
}

/// b_eff (with analysis cells: 47 cells) on one machine through the
/// factory overload of beff::run_beff at jobs=1.
class BeffWorkload final : public Workload {
 public:
  BeffWorkload(std::string name, std::string key, int nprocs, std::uint64_t seed)
      : name_(std::move(name)), key_(std::move(key)), nprocs_(nprocs), seed_(seed) {}

  [[nodiscard]] std::string name() const override { return name_; }

  SetupTimes setup() override {
    SetupTimes t;
    const double t0 = wall_now();
    machine_ = machines::machine_by_name(key_);
    first_ = build_transport(machine_, nprocs_, &t);
    t.total_s = wall_now() - t0;
    return t;
  }

  PassOutput pass() override {
    beff::BeffOptions opt;
    opt.memory_per_proc = machine_.memory_per_proc;
    opt.random_seed = seed_;
    opt.measure_analysis = true;
    opt.collect_metrics = true;
    opt.jobs = 1;
    // The first transport comes from setup(); any further one (jobs > 1
    // would ask for one per cell) is built like it.
    auto factory = [this]() -> std::unique_ptr<parmsg::Transport> {
      if (first_) return std::move(first_);
      SetupTimes ignored;
      return build_transport(machine_, nprocs_, &ignored);
    };
    const beff::BeffResult r = beff::run_beff(factory, nprocs_, opt);
    PassOutput out;
    out.digest = util::fnv1a_hex(beff::protocol_report(r));
    out.metrics = r.metrics;
    // Table 1 rows come from the pipeline's own spec list.
    for (const auto& spec : report::beff_specs(report::Scope::Doc)) {
      if (spec.key == key_ && spec.nprocs == nprocs_ && spec.in_table &&
          spec.paper.b_eff > 0.0) {
        out.paper_rows = 1;
        out.paper_err_pct =
            100.0 * std::fabs(r.b_eff / kMiB - spec.paper.b_eff) / spec.paper.b_eff;
      }
    }
    return out;
  }

  [[nodiscard]] machines::MachineSpec replay_machine() const override {
    return machines::machine_by_name(key_);
  }
  [[nodiscard]] int replay_nprocs() const override { return nprocs_; }
  [[nodiscard]] pfsim::IoSystemConfig replay_io() const override {
    return *replay_machine().io;
  }

 private:
  std::string name_, key_;
  int nprocs_;
  std::uint64_t seed_;
  machines::MachineSpec machine_;
  std::unique_ptr<parmsg::Transport> first_;
};

/// b_eff_io on one machine's I/O system through the factory overload
/// of beffio::run_beffio at jobs=1.
class BeffIoWorkload final : public Workload {
 public:
  BeffIoWorkload(std::string name, std::string key, int nprocs, double T,
                 std::uint64_t seed)
      : name_(std::move(name)), key_(std::move(key)), nprocs_(nprocs), T_(T),
        seed_(seed) {}

  [[nodiscard]] std::string name() const override { return name_; }

  SetupTimes setup() override {
    SetupTimes t;
    const double t0 = wall_now();
    machine_ = machines::machine_by_name(key_);
    first_ = build_transport(machine_, nprocs_, &t);
    t.total_s = wall_now() - t0;
    return t;
  }

  PassOutput pass() override {
    beffio::BeffIoOptions opt;
    opt.scheduled_time = T_;
    opt.memory_per_node = machine_.memory_per_proc;
    opt.file_prefix = machine_.short_name;
    opt.random_seed = seed_;
    opt.collect_metrics = true;
    opt.jobs = 1;
    auto factory = [this]() -> std::unique_ptr<parmsg::SimTransport> {
      if (first_) return std::move(first_);
      SetupTimes ignored;
      return build_transport(machine_, nprocs_, &ignored);
    };
    const beffio::BeffIoResult r =
        beffio::run_beffio(factory, *machine_.io, nprocs_, opt);
    PassOutput out;
    out.digest = util::fnv1a_hex(beffio::beffio_report(r));
    out.metrics = r.metrics;
    return out;
  }

  [[nodiscard]] machines::MachineSpec replay_machine() const override {
    return machines::machine_by_name(key_);
  }
  [[nodiscard]] int replay_nprocs() const override { return nprocs_; }
  [[nodiscard]] pfsim::IoSystemConfig replay_io() const override {
    return *replay_machine().io;
  }

 private:
  std::string name_, key_;
  int nprocs_;
  double T_;
  std::uint64_t seed_;
  machines::MachineSpec machine_;
  std::unique_ptr<parmsg::SimTransport> first_;
};

/// The doc-regeneration shape: report::run_experiments over a scenario
/// at jobs = nproc, then both writers.  Scenario b_eff cells run with
/// the pipeline's default pattern seed (the scenario format has no
/// seed for them), so the pattern seed does not apply here.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::string name, std::string path)
      : name_(std::move(name)), path_(std::move(path)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  SetupTimes setup() override {
    SetupTimes t;
    const double t0 = wall_now();
    scenario_ = std::make_unique<scenario::Scenario>(
        scenario::load_scenario_file(path_));
    const double t1 = wall_now();
    t.scenario_parse_s = t1 - t0;
    // Every cell's machine, topology and transport, as the pipeline
    // builds them inside its tasks.
    auto cell = [&](const std::string& key, int nprocs) {
      const machines::MachineSpec m = scenario_->resolve_machine(key);
      build_transport(m, nprocs, &t);
    };
    for (const auto& c : scenario_->beff) cell(c.machine, c.nprocs);
    for (const auto& c : scenario_->io) cell(c.machine, c.nprocs);
    t.total_s = wall_now() - t0;
    return t;
  }

  PassOutput pass() override {
    report::ExperimentOptions opt;
    opt.scope = report::Scope::Doc;
    opt.jobs = util::hardware_jobs();
    opt.scenario = scenario_.get();
    const report::ExperimentsData data = report::run_experiments(opt);

    const double t0 = wall_now();
    const std::string hash = report::config_hash(opt.scope, scenario_.get());
    std::ostringstream md;
    report::render_experiments_md(md, data, hash);
    // The record's provenance block is the only part that depends on
    // the checkout (git revision); a fixed revision keeps it constant.
    std::ostringstream record;
    report::write_run_record(record, data, hash, "e2ebench");
    PassOutput out;
    out.render_s = wall_now() - t0;
    out.digest = util::fnv1a_hex(md.str() + record.str());

    for (const auto& b : data.beff) out.metrics.merge(b.r.metrics);
    for (const auto& io : data.io) out.metrics.merge(io.r.metrics);
    for (const auto& k : data.kernels) out.metrics.merge(k.r.metrics);

    const auto table = report::beff_specs(report::Scope::Doc);
    double err = 0.0;
    for (const auto& b : data.beff) {
      for (const auto& spec : table) {
        if (spec.key == b.key && spec.nprocs == b.nprocs && spec.in_table &&
            spec.paper.b_eff > 0.0) {
          err += std::fabs(b.r.b_eff / kMiB - spec.paper.b_eff) / spec.paper.b_eff;
          ++out.paper_rows;
        }
      }
    }
    if (out.paper_rows > 0) out.paper_err_pct = 100.0 * err / out.paper_rows;
    return out;
  }

  [[nodiscard]] machines::MachineSpec replay_machine() const override {
    return machines::machine_by_name("t3e");
  }
  // The critical-path partition of the sweep.
  [[nodiscard]] int replay_nprocs() const override { return 256; }
  [[nodiscard]] pfsim::IoSystemConfig replay_io() const override {
    return *machines::machine_by_name("t3e").io;
  }

 private:
  std::string name_, path_;
  std::unique_ptr<scenario::Scenario> scenario_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"beff-torus", "beffio-gpfs", "sweep-mix"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t pattern_seed,
                                        const std::string& bench_dir) {
  if (name == "beff-torus") {
    return std::make_unique<BeffWorkload>(name, "t3e", 128, pattern_seed);
  }
  if (name == "beffio-gpfs") {
    return std::make_unique<BeffIoWorkload>(name, "sp", 128, 900.0, pattern_seed);
  }
  if (name == "sweep-mix") {
    return std::make_unique<SweepWorkload>(name, bench_dir + "/sweep-mix.json");
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2ebench
