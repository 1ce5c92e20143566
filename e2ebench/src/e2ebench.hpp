// End-to-end benchmark of the balbench simulator.
//
// Three workloads run the simulator through its public entry points,
// each with obs metrics collected as the pipeline collects them:
//
//   beff-torus   beff::run_beff on the Cray T3E torus, 128 ranks, jobs=1
//   beffio-gpfs  beffio::run_beffio on the IBM SP GPFS-like I/O system,
//                128 ranks, T = 900 s, jobs=1
//   sweep-mix    report::run_experiments over sweep-mix.json at
//                jobs = nproc, then render_experiments_md + write_run_record
//
// All host timing lives in this directory: around calls into each
// layer's public functions (host.cpp, replays.cpp), plus the public
// util::set_pool_observer hook (through obs::prof::Profiler) and the
// obs::MetricsSnapshot every result carries.  Nothing here feeds back
// into the simulator, so its outputs stay byte-identical to the
// pipeline's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "machines/machines.hpp"
#include "obs/metrics.hpp"

namespace balbench {
namespace beff {}
namespace beffio {}
namespace report {}
namespace scenario {}
namespace simt {}
namespace util {}
}  // namespace balbench

namespace e2ebench {

namespace beff = balbench::beff;
namespace beffio = balbench::beffio;
namespace machines = balbench::machines;
namespace net = balbench::net;
namespace obs = balbench::obs;
namespace parmsg = balbench::parmsg;
namespace pfsim = balbench::pfsim;
namespace report = balbench::report;
namespace scenario = balbench::scenario;
namespace simt = balbench::simt;
namespace util = balbench::util;

// ---------------------------------------------------------------------------
// Host measurements (host.cpp)
// ---------------------------------------------------------------------------

/// Monotonic wall clock, seconds.
double wall_now();
/// User + system CPU seconds of the whole process (getrusage).
double cpu_now();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();
double median(std::vector<double> v);

/// Host facts stamped on every result.
struct Provenance {
  int nproc = 0;
  std::string cpu_model;
  std::string build_type;  // CMAKE_BUILD_TYPE of this build
  std::string cxx_flags;   // compiler flags of that build type
  bool optimized = false;  // compiled with optimisation (__OPTIMIZE__)
  std::string revision;    // git revision or source digest (run.py)
};
Provenance host_provenance(const std::string& revision);

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp)
// ---------------------------------------------------------------------------

/// What one pass produced: the digest of the output the goldens pin,
/// the merged obs snapshot, and the mean paper error where the
/// workload contains Table 1 rows.
struct PassOutput {
  std::string digest;
  obs::MetricsSnapshot metrics;
  double render_s = 0.0;       // sweep-mix: render + record (host s)
  int paper_rows = 0;
  double paper_err_pct = 0.0;  // mean |sim - paper| / paper, percent
};

/// Host timings of one set-up; the parts are medians in the output.
struct SetupTimes {
  double total_s = 0.0;
  double scenario_parse_s = 0.0;
  double topology_build_s = 0.0;
  double transport_setup_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Parse / build / construct everything a pass starts from.  Called
  /// several times per run; each call replaces the previous state.
  virtual SetupTimes setup() = 0;
  /// One full pass.  Throws on simulator errors.
  virtual PassOutput pass() = 0;
  /// Machine and rank count the layer replays use.
  [[nodiscard]] virtual machines::MachineSpec replay_machine() const = 0;
  [[nodiscard]] virtual int replay_nprocs() const = 0;
  /// I/O system the pfsim replay uses.
  [[nodiscard]] virtual pfsim::IoSystemConfig replay_io() const = 0;
};

/// Workload names in BENCHMARK.json order.
std::vector<std::string> workload_names();
/// `pattern_seed` feeds BeffOptions / BeffIoOptions::random_seed;
/// `bench_dir` locates sweep-mix.json.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t pattern_seed,
                                        const std::string& bench_dir);

// ---------------------------------------------------------------------------
// Layer replays (replays.cpp)
// ---------------------------------------------------------------------------

/// One replay: a fixed, deterministic amount of work through one
/// layer's public API.  `counts` are exact (pinned in goldens.json),
/// `unit` is host time per counted operation.
struct Replay {
  std::string name;  // "net", "simt.event", ...
  std::map<std::string, std::uint64_t> counts;
  double wall_s = 0.0;
  double unit = 0.0;
};

struct ReplayResults {
  double resolve_us = 0.0;   // net: per FlowNetwork resolve
  double flow_us = 0.0;      // net: the same time per flow
  double event_ns = 0.0;     // simt: per fired event
  double switch_ns = 0.0;    // simt: per fiber switch, event cost removed
  double spawn_us = 0.0;     // simt: per spawned (and finished) process
  double barrier_us = 0.0;   // parmsg: per barrier across all ranks
  double request_us = 0.0;   // pfsim: per FileSystem request
  std::vector<Replay> replays;
};

ReplayResults run_replays(const Workload& w);

}  // namespace e2ebench
