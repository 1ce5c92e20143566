// Flow-level network simulation with max-min fair link sharing.
//
// Instead of simulating packets, every in-flight message is a *flow*
// with a byte count and a link path.  Whenever the active flow set
// changes, bandwidth is (re)allocated by progressive filling: all flows
// grow at the same rate until a link saturates, the flows through that
// link are frozen at their fair share, and the process repeats -- the
// classic max-min fairness computation used by flow-level simulators
// such as SimGrid.  Each flow then has its own completion event in the
// engine's indexed queue, rescheduled in O(log n) when its rate moves.
//
// The solver is *incremental* (docs/SIMULATOR.md "Incremental
// re-solve"): per-link flow sets double as an adjacency structure, and
// a change only re-runs progressive filling over the connected
// component of flows whose rates can actually move -- flows in
// link-disjoint components keep their rates and their scheduled
// completions untouched.  A full solve remains as fallback (and as a
// forced mode / debug cross-check, below).  This turns the per-event
// cost from O(active-flows * path-length) into O(component size),
// which is what makes 512-rank random patterns and 100k-rank what-if
// sessions affordable while preserving the phenomena the paper relies
// on (shared torus links, NIC duplex limits, SMP bus saturation).
//
// A fill never walks paths to count flows per link (docs/SIMULATOR.md
// "Inside one fill").  Its flow set is closed under link sharing --
// every active flow, or one connected component -- so a link's count
// is simply the size of its flow set; the links come from a maintained
// list of non-empty links (full solves) or from the component walk
// (incremental ones).  Each round takes the minimum over a dense
// per-link share array, gathers the unfixed flows on the links inside
// the 1e-12 tie band into a bitmap indexed by fill position, and walks
// that bitmap in arrival order applying the same live bottleneck test
// and the same residual updates as a scan of every unfixed flow would.
// Rates are therefore bitwise those of plain progressive filling, at a
// cost proportional to the flows actually frozen per round.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/topology.hpp"
#include "simt/engine.hpp"

namespace balbench::net {

class FlowNetwork {
 public:
  /// Rate-allocation strategy.  kIncremental (the default) re-solves
  /// only affected components; kFullOnly re-runs the global fill on
  /// every change (the pre-incremental behaviour -- kept as fallback
  /// and as the reference for equivalence tests).  The process-wide
  /// default honours BALBENCH_FLOW_SOLVER=full|incremental.
  enum class SolverMode { kIncremental, kFullOnly };

  FlowNetwork(const Topology& topo, simt::Engine& engine);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Begin transferring `bytes` from endpoint src to endpoint dst.
  /// `done` fires (from an engine event) when the last byte arrives;
  /// the transfer sees the topology's end-to-end latency first, then
  /// streams bytes at its max-min fair rate.
  void start_flow(int src, int dst, double bytes,
                  std::function<void(simt::Time)> done);

  /// Number of flows currently moving bytes (diagnostics).
  [[nodiscard]] std::size_t active_flows() const { return active_count_; }

  /// Total resolver invocations (micro-benchmark instrumentation),
  /// split by whether the incremental path was taken.
  [[nodiscard]] std::uint64_t resolves() const { return resolves_; }
  [[nodiscard]] std::uint64_t incremental_resolves() const {
    return incremental_resolves_;
  }
  [[nodiscard]] std::uint64_t full_resolves() const { return full_resolves_; }

  void set_solver_mode(SolverMode m) { mode_ = m; }
  [[nodiscard]] SolverMode solver_mode() const { return mode_; }

  /// Debug cross-check: after every incremental resolve, recompute all
  /// rates with the full global fill and throw std::logic_error on any
  /// divergence beyond FP noise.  Expensive; for tests and debugging
  /// (BALBENCH_FLOW_CROSSCHECK=1 turns it on process-wide).
  void set_crosscheck(bool on) { crosscheck_ = on; }

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] simt::Engine& engine() { return engine_; }

 private:
  /// Reaches the fill and its inputs from tests (tests/net), which
  /// compare it against a reference progressive fill.
  friend class FlowNetworkTestPeer;

  /// Slot index into slots_; stable for the lifetime of one flow,
  /// recycled afterwards.
  using FlowSlot = std::uint32_t;

  struct ActiveFlow {
    std::vector<LinkId> path;
    /// link_slot[i] = this flow's position inside link_flows_[path[i]]
    /// (kept exact under swap-removal, so departure is O(path)).
    std::vector<std::uint32_t> link_slot;
    double remaining = 0.0;   // bytes, valid as of last_update
    double rate = 0.0;        // bytes/second under current allocation
    simt::Time last_update = 0.0;
    std::uint64_t seq = 0;    // arrival order; stable across slot reuse
    std::uint64_t completion_event = 0;  // engine event id; 0 = none
    std::function<void(simt::Time)> done;
    bool in_use = false;
  };

  /// One membership record in a per-link flow set.
  struct LinkEntry {
    FlowSlot flow;
    std::uint32_t path_pos;  // index into that flow's path/link_slot
  };

  /// Size the per-link tables when the first flow arrives, so that
  /// constructing a network stays cheap.
  void size_link_tables();
  void add_active(ActiveFlow flow);
  void on_flow_complete(FlowSlot slot);
  void remove_from_links(FlowSlot slot);
  /// Defer resolve to the end of the current timestamp so that a batch
  /// of simultaneous arrivals/departures (every rank of a ring pattern
  /// starts its sends at the same virtual instant) costs one resolve.
  void schedule_resolve();
  /// Recompute rates for the affected component(s) -- or everything,
  /// in full mode -- and (re)schedule per-flow completion events.
  void resolve();
  /// Epoch-mark the connected component(s) of flows reachable from the
  /// dirty seeds through shared links, listing the links visited in
  /// component_links_.  Returns the number of flows marked; stops early
  /// (with marks and list incomplete) once every active flow is marked,
  /// since the caller then takes the full path anyway.
  std::size_t collect_affected();
  /// Progressive filling over `flows` (in arrival order); rates[i]
  /// receives the max-min rate of slots_[flows[i]].  `links` must list
  /// every link the flows cross, and every flow on a listed link must
  /// be in `flows` (the set is closed under link sharing); listed links
  /// without flows are skipped.  Pure: commits nothing.
  void fill_rates(const std::vector<FlowSlot>& flows,
                  const std::vector<LinkId>& links,
                  std::vector<double>& rates);
  /// Put the unfixed flows of dense link k whose fill position is at
  /// least `from` into the candidate bitmap.
  void gather_candidates(std::uint32_t k, std::uint32_t from);
  /// Smallest share in the dense per-fill array.
  [[nodiscard]] double min_dense_share() const;
  /// Drop dead (flowless) links from the dense per-fill arrays.
  void compact_dense_links();
  /// Recompute every active rate with the full fill and compare with
  /// the committed ones (set_crosscheck).
  void crosscheck_against_full();

  [[nodiscard]] double remaining_at(const ActiveFlow& f, simt::Time now) const {
    const double left = f.remaining - f.rate * (now - f.last_update);
    return left > 0.0 ? left : 0.0;
  }

  const Topology& topo_;
  simt::Engine& engine_;

  std::vector<ActiveFlow> slots_;
  std::vector<FlowSlot> free_slots_;
  std::size_t active_count_ = 0;
  std::uint64_t next_flow_seq_ = 1;

  /// Active flows in arrival order: seq is monotonic, so appending on
  /// arrival keeps this sorted -- resolve() reads commit order straight
  /// off it instead of sorting per resolve.  Entries of departed flows
  /// go stale in place (detected by seq mismatch / !in_use) and are
  /// compacted away during the next resolve's walk.
  struct ArrivalEntry {
    FlowSlot slot;
    std::uint64_t seq;
  };
  std::vector<ArrivalEntry> arrival_order_;

  /// link id -> flows currently crossing it (the incremental solver's
  /// adjacency structure, and every fill's per-link flow count);
  /// lazily sized to the topology.
  std::vector<std::vector<LinkEntry>> link_flows_;
  /// link id -> bandwidth, copied out of the topology's link table.
  std::vector<double> capacity_;
  /// Links with a non-empty flow set, in no particular order (full
  /// solves fill over these); live_pos_[l] is l's index in it, kept
  /// exact under swap-removal.
  std::vector<LinkId> live_links_;
  std::vector<std::uint32_t> live_pos_;
  /// Links the last collect_affected visited (incremental solves fill
  /// over these; they may include links left empty by a departure).
  std::vector<LinkId> component_links_;

  /// Seeds accumulated since the last resolve: flows that arrived, and
  /// the former links of flows that departed.
  std::vector<FlowSlot> dirty_flows_;
  std::vector<LinkId> dirty_links_;

  bool resolve_pending_ = false;
  std::uint64_t resolves_ = 0;
  std::uint64_t incremental_resolves_ = 0;
  std::uint64_t full_resolves_ = 0;
  SolverMode mode_;
  bool crosscheck_;

  /// Epoch-stamped visited marks for collect_affected (no O(links)
  /// clearing between resolves).
  std::vector<std::uint64_t> link_epoch_;
  std::vector<std::uint64_t> flow_epoch_;
  std::uint64_t epoch_ = 0;

  // Scratch buffers reused across resolves.
  std::vector<FlowSlot> affected_;
  std::vector<double> rates_scratch_;
  std::vector<FlowSlot> bfs_stack_;

  // Per-fill state (fill_rates).  A fill position is a flow's index in
  // the fill's flow list; fill_pos_ (by slot) and dense_of_ (by link
  // id) are only meaningful for the flows and links of the current
  // fill.  The dense arrays hold one entry per link of the fill: the
  // live residual capacity, unfixed-flow count and fair share
  // residual/count (+inf once the count reaches zero: a dead link,
  // compacted away lazily).
  std::vector<std::uint32_t> fill_pos_;
  std::vector<std::uint32_t> dense_of_;
  std::vector<const std::vector<LinkId>*> paths_scratch_;
  std::vector<unsigned char> frozen_;
  std::vector<std::uint64_t> candidates_;  // bitmap over fill positions
  std::vector<LinkId> dense_link_;
  std::vector<double> dense_residual_;
  std::vector<int> dense_count_;
  std::vector<double> dense_share_;
  /// Round stamp of the last round a dense link was in the tie band.
  std::vector<std::uint64_t> dense_band_;
  std::uint64_t fill_round_ = 0;
  std::size_t dead_links_ = 0;

  /// Test seam, set only through FlowNetworkTestPeer: called at the end
  /// of every resolve that ran a fill, with the fill's flows, links and
  /// rates (the rates are committed by then).
  std::function<void(const std::vector<FlowSlot>&, const std::vector<LinkId>&,
                     const std::vector<double>&)>
      fill_observer_;
};

}  // namespace balbench::net
