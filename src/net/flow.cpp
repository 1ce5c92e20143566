#include "net/flow.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace balbench::net {

namespace {
// A flow is finished once less than half a byte remains; avoids
// spinning on floating-point residue.
constexpr double kDoneEpsilonBytes = 0.5;

// A fill-loop stall means the solver's invariants broke (every unfixed
// flow crosses at least one touched link with a positive flow count,
// so a bottleneck always exists).  Surface it loudly in debug builds;
// release builds log and degrade by terminating the fill loop, which
// leaves the remaining flows at rate zero and trips the explicit
// zero-rate check in resolve().
void report_fill_stall(const char* what, std::size_t unfixed,
                       std::size_t total) {
  std::fprintf(stderr,
               "balbench: net/flow progressive filling stalled: %s "
               "(%zu of %zu flows unfixed)\n",
               what, unfixed, total);
  assert(false && "progressive filling stalled (see stderr)");
}

FlowNetwork::SolverMode env_solver_mode() {
  const char* env = std::getenv("BALBENCH_FLOW_SOLVER");
  if (env != nullptr && std::strcmp(env, "full") == 0) {
    return FlowNetwork::SolverMode::kFullOnly;
  }
  return FlowNetwork::SolverMode::kIncremental;
}

bool env_crosscheck() {
  const char* env = std::getenv("BALBENCH_FLOW_CROSSCHECK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}
}  // namespace

FlowNetwork::FlowNetwork(const Topology& topo, simt::Engine& engine)
    : topo_(topo), engine_(engine), mode_(env_solver_mode()),
      crosscheck_(env_crosscheck()) {}

void FlowNetwork::size_link_tables() {
  const auto& links = topo_.links();
  const std::size_t n = links.size();
  capacity_.resize(n);
  for (std::size_t l = 0; l < n; ++l) capacity_[l] = links[l].bandwidth;
  link_flows_.resize(n);
  live_pos_.resize(n);
  dense_of_.resize(n);
  link_epoch_.resize(n, 0);
}

void FlowNetwork::start_flow(int src, int dst, double bytes,
                             std::function<void(simt::Time)> done) {
  if (src < 0 || src >= topo_.num_endpoints() || dst < 0 ||
      dst >= topo_.num_endpoints()) {
    throw std::out_of_range("FlowNetwork::start_flow: endpoint out of range");
  }
  const double lat = topo_.latency(src, dst);

  ActiveFlow flow;
  topo_.route(src, dst, flow.path);
  flow.remaining = std::max(bytes, 0.0);
  flow.done = std::move(done);

  if (flow.path.empty()) {
    // Node-local transfer: a straight memcpy, no link contention.
    const double t = lat + flow.remaining / topo_.self_bandwidth();
    auto cb = std::move(flow.done);
    engine_.schedule_after(t, [this, cb = std::move(cb)] { cb(engine_.now()); });
    return;
  }

  if (flow.remaining < kDoneEpsilonBytes) {
    auto cb = std::move(flow.done);
    engine_.schedule_after(lat, [this, cb = std::move(cb)] { cb(engine_.now()); });
    return;
  }

  // The wire latency elapses before bytes start streaming; the flow
  // only contends for links after that.
  engine_.schedule_after(lat, [this, flow = std::move(flow)]() mutable {
    add_active(std::move(flow));
  });
}

void FlowNetwork::add_active(ActiveFlow flow) {
  if (link_flows_.empty()) size_link_tables();
  FlowSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(flow);
  } else {
    slot = static_cast<FlowSlot>(slots_.size());
    slots_.push_back(std::move(flow));
  }
  ActiveFlow& f = slots_[slot];
  f.in_use = true;
  f.seq = next_flow_seq_++;
  f.rate = 0.0;
  f.last_update = engine_.now();
  f.completion_event = 0;
  f.link_slot.assign(f.path.size(), 0);
  for (std::size_t i = 0; i < f.path.size(); ++i) {
    const auto idx = static_cast<std::size_t>(f.path[i]);
    auto& members = link_flows_[idx];
    if (members.empty()) {
      live_pos_[idx] = static_cast<std::uint32_t>(live_links_.size());
      live_links_.push_back(f.path[i]);
    }
    f.link_slot[i] = static_cast<std::uint32_t>(members.size());
    members.push_back(LinkEntry{slot, static_cast<std::uint32_t>(i)});
  }
  ++active_count_;
  arrival_order_.push_back(ArrivalEntry{slot, f.seq});
  dirty_flows_.push_back(slot);
  schedule_resolve();
}

void FlowNetwork::remove_from_links(FlowSlot slot) {
  ActiveFlow& f = slots_[slot];
  for (std::size_t i = 0; i < f.path.size(); ++i) {
    const auto idx = static_cast<std::size_t>(f.path[i]);
    auto& members = link_flows_[idx];
    const std::uint32_t pos = f.link_slot[i];
    assert(pos < members.size() && members[pos].flow == slot);
    members[pos] = members.back();
    members.pop_back();
    if (pos < members.size()) {
      // Swap-removal moved another membership record into `pos`; keep
      // that flow's back-pointer exact.
      const LinkEntry& moved = members[pos];
      slots_[moved.flow].link_slot[moved.path_pos] = pos;
    } else if (members.empty()) {
      // Last flow gone: swap-remove the link from the non-empty list.
      const LinkId last = live_links_.back();
      live_links_[live_pos_[idx]] = last;
      live_pos_[static_cast<std::size_t>(last)] = live_pos_[idx];
      live_links_.pop_back();
    }
    // The departed flow's former links seed the next component walk:
    // every flow whose rate can change is reachable from them.
    dirty_links_.push_back(f.path[i]);
  }
}

void FlowNetwork::schedule_resolve() {
  if (resolve_pending_) return;
  resolve_pending_ = true;
  // Same-timestamp event: runs after all events already queued for the
  // current instant, so simultaneous arrivals share one resolve.
  engine_.schedule_after(0.0, [this] {
    resolve_pending_ = false;
    resolve();
  });
}

std::size_t FlowNetwork::collect_affected() {
  ++epoch_;
  if (flow_epoch_.size() < slots_.size()) flow_epoch_.resize(slots_.size(), 0);
  bfs_stack_.clear();
  component_links_.clear();
  std::size_t marked = 0;
  const auto push_flow = [this, &marked](FlowSlot s) {
    if (flow_epoch_[s] == epoch_) return;
    flow_epoch_[s] = epoch_;
    ++marked;
    bfs_stack_.push_back(s);
  };
  const auto visit_link = [this, &push_flow](LinkId l) {
    const auto idx = static_cast<std::size_t>(l);
    if (link_epoch_[idx] == epoch_) return;
    link_epoch_[idx] = epoch_;
    component_links_.push_back(l);
    for (const LinkEntry& e : link_flows_[idx]) push_flow(e.flow);
  };
  for (FlowSlot s : dirty_flows_) {
    if (slots_[s].in_use) push_flow(s);
  }
  for (LinkId l : dirty_links_) visit_link(l);
  while (!bfs_stack_.empty()) {
    // Once every active flow is marked the component covers the whole
    // network -- the caller takes the full path, so visiting the
    // remaining links only to mark flows already marked is waste.
    // Globally coupled patterns (rings, all-to-all) hit this early.
    if (marked >= active_count_) break;
    const FlowSlot s = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (LinkId l : slots_[s].path) visit_link(l);
  }
  return marked;
}

void FlowNetwork::fill_rates(const std::vector<FlowSlot>& flows,
                             const std::vector<LinkId>& links,
                             std::vector<double>& rates) {
  // --- Progressive filling (max-min fairness). ---
  const std::size_t nflows = flows.size();
  rates.assign(nflows, 0.0);
  frozen_.assign(nflows, 0);
  candidates_.assign((nflows + 63) / 64, 0);
  // Resolve the slot indirection once: freezing walks the frozen
  // flow's path, and chasing slots_ from inside it costs a measurable
  // fraction of the whole solve.
  if (fill_pos_.size() < slots_.size()) fill_pos_.resize(slots_.size());
  paths_scratch_.clear();
  for (std::uint32_t i = 0; i < nflows; ++i) {
    fill_pos_[flows[i]] = i;
    paths_scratch_.push_back(&slots_[flows[i]].path);
  }
  // The flow set is closed under link sharing, so a link's count of
  // participating flows is the size of its flow set -- no path walk.
  dense_link_.resize(links.size());
  dense_residual_.resize(links.size());
  dense_count_.resize(links.size());
  dense_share_.resize(links.size());
  std::size_t ndense = 0;
  for (LinkId l : links) {
    const auto idx = static_cast<std::size_t>(l);
    const auto count = static_cast<int>(link_flows_[idx].size());
    if (count == 0) continue;
    dense_of_[idx] = static_cast<std::uint32_t>(ndense);
    dense_link_[ndense] = l;
    dense_residual_[ndense] = capacity_[idx];
    dense_count_[ndense] = count;
    dense_share_[ndense] = capacity_[idx] / count;
    ++ndense;
  }
  dense_link_.resize(ndense);
  dense_residual_.resize(ndense);
  dense_count_.resize(ndense);
  dense_share_.resize(ndense);
  dense_band_.resize(ndense, 0);
  dead_links_ = 0;
#ifndef NDEBUG
  for (LinkId l : dense_link_) {
    for (const LinkEntry& e : link_flows_[static_cast<std::size_t>(l)]) {
      const std::uint32_t pos = fill_pos_[e.flow];
      assert(pos < nflows && flows[pos] == e.flow &&
             "flow on a listed link missing from the fill set");
    }
  }
  for (const auto* path : paths_scratch_) {
    for (LinkId l : *path) {
      const std::uint32_t k = dense_of_[static_cast<std::size_t>(l)];
      assert(k < dense_link_.size() && dense_link_[k] == l &&
             "link of a filled flow missing from the fill's link list");
    }
  }
#endif

  constexpr double kDead = std::numeric_limits<double>::infinity();
  std::size_t unfixed = nflows;
  while (unfixed > 0) {
    if (2 * dead_links_ > dense_link_.size()) compact_dense_links();
    // Most constrained link: smallest residual fair share (dead links
    // sit at +inf and never win).
    const double min_share = min_dense_share();
    if (min_share == std::numeric_limits<double>::max()) {
      report_fill_stall("no saturable link", unfixed, nflows);
      break;
    }

    // Freeze every unfixed flow that crosses a bottleneck link, visiting
    // flows in fill order and testing each against the *live* shares
    // (earlier freezes in this round move them).  Only flows on a link
    // inside the tie band can pass that test, so those are the only
    // ones visited.  A freeze never lowers a share in exact arithmetic;
    // should rounding ever pull a link into the band mid-round, its
    // flows still ahead of the walk join the candidates right there.
    const double bound = min_share + min_share * 1e-12;
    const std::uint64_t round = ++fill_round_;
    for (std::uint32_t k = 0; k < dense_share_.size(); ++k) {
      if (dense_share_[k] <= bound) {
        dense_band_[k] = round;
        gather_candidates(k, 0);
      }
    }
    std::size_t frozen_now = 0;
    for (std::size_t w = 0; w < candidates_.size(); ++w) {
      while (candidates_[w] != 0) {
        const auto fi = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(candidates_[w])));
        candidates_[w] &= candidates_[w] - 1;
        const auto& path = *paths_scratch_[fi];
        const bool bottlenecked =
            std::any_of(path.begin(), path.end(), [&](LinkId l) {
              return dense_share_[dense_of_[static_cast<std::size_t>(l)]] <=
                     bound;
            });
        if (!bottlenecked) continue;
        rates[fi] = min_share;
        frozen_[fi] = 1;
        ++frozen_now;
        for (LinkId l : path) {
          const std::uint32_t k = dense_of_[static_cast<std::size_t>(l)];
          dense_residual_[k] = std::max(0.0, dense_residual_[k] - min_share);
          if (--dense_count_[k] == 0) {
            dense_share_[k] = kDead;
            ++dead_links_;
            continue;
          }
          dense_share_[k] = dense_residual_[k] / dense_count_[k];
          if (dense_share_[k] <= bound && dense_band_[k] != round) {
            dense_band_[k] = round;
            gather_candidates(k, fi + 1);
          }
        }
      }
    }
    if (frozen_now == 0) {
      report_fill_stall("no flow crosses a bottleneck", unfixed, nflows);
      break;
    }
    unfixed -= frozen_now;
  }
}

double FlowNetwork::min_dense_share() const {
  // Four independent accumulators: a single running minimum is one long
  // dependency chain, and a minimum does not depend on the grouping.
  double m[4] = {std::numeric_limits<double>::max(),
                 std::numeric_limits<double>::max(),
                 std::numeric_limits<double>::max(),
                 std::numeric_limits<double>::max()};
  const double* share = dense_share_.data();
  const std::size_t n = dense_share_.size();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    m[0] = std::min(m[0], share[k]);
    m[1] = std::min(m[1], share[k + 1]);
    m[2] = std::min(m[2], share[k + 2]);
    m[3] = std::min(m[3], share[k + 3]);
  }
  for (; k < n; ++k) m[0] = std::min(m[0], share[k]);
  return std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
}

void FlowNetwork::gather_candidates(std::uint32_t k, std::uint32_t from) {
  for (const LinkEntry& e :
       link_flows_[static_cast<std::size_t>(dense_link_[k])]) {
    const std::uint32_t pos = fill_pos_[e.flow];
    if (pos >= from && frozen_[pos] == 0) {
      candidates_[pos / 64] |= std::uint64_t{1} << (pos % 64);
    }
  }
}

void FlowNetwork::compact_dense_links() {
  std::size_t live = 0;
  for (std::size_t k = 0; k < dense_link_.size(); ++k) {
    if (dense_count_[k] == 0) continue;
    dense_link_[live] = dense_link_[k];
    dense_residual_[live] = dense_residual_[k];
    dense_count_[live] = dense_count_[k];
    dense_share_[live] = dense_share_[k];
    dense_band_[live] = dense_band_[k];
    dense_of_[static_cast<std::size_t>(dense_link_[live])] =
        static_cast<std::uint32_t>(live);
    ++live;
  }
  dense_link_.resize(live);
  dense_residual_.resize(live);
  dense_count_.resize(live);
  dense_share_.resize(live);
  dense_band_.resize(live);
  dead_links_ = 0;
}

void FlowNetwork::resolve() {
  if (active_count_ == 0) {
    // Nothing to allocate (the last flow just departed); not counted,
    // so resolves_ == incremental_resolves_ + full_resolves_ holds.
    dirty_flows_.clear();
    dirty_links_.clear();
    return;
  }
  ++resolves_;
  const simt::Time now = engine_.now();

  bool full = (mode_ == SolverMode::kFullOnly);
  if (!full) {
    // Fallback: once the component walk covers every active flow,
    // the incremental path has no advantage -- count it as a full
    // solve (also the path taken for globally coupled patterns such
    // as a ring, where all flows share links transitively).
    full = collect_affected() >= active_count_;
  }
  if (full) {
    ++full_resolves_;
  } else {
    ++incremental_resolves_;
  }
  dirty_flows_.clear();
  dirty_links_.clear();

  // One pass over the arrival-ordered list does double duty: compact
  // stale entries (departed flows; a recycled slot is recognised by its
  // seq) and read the commit set off it already in arrival order -- no
  // per-resolve sort.  In full mode that is every live entry; in
  // incremental mode, the epoch marks collect_affected just set.
  affected_.clear();
  std::size_t live = 0;
  for (const ArrivalEntry& e : arrival_order_) {
    const ActiveFlow& f = slots_[e.slot];
    if (!f.in_use || f.seq != e.seq) continue;
    arrival_order_[live++] = e;
    if (full || flow_epoch_[e.slot] == epoch_) affected_.push_back(e.slot);
  }
  arrival_order_.resize(live);
  assert(live == active_count_ && "arrival list out of sync");
  if (affected_.empty()) return;

  fill_rates(affected_, full ? live_links_ : component_links_, rates_scratch_);

  // Commit, in arrival order: materialize progress under the *old*
  // rate up to now, install the new rate, and move the flow's
  // completion event to the new finish time (O(log n) each on the
  // engine's indexed queue).  Flows outside `affected_` keep both
  // their rate and their scheduled completion untouched -- that is the
  // incremental solver's whole point.
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    ActiveFlow& f = slots_[affected_[i]];
    const double rate = rates_scratch_[i];
    if (rate <= 0.0) {
      throw std::logic_error("FlowNetwork: flow allocated zero rate (link with "
                             "zero capacity on its path?)");
    }
    if (rate == f.rate && f.completion_event != 0) {
      // Bitwise-identical rate: the flow's byte trajectory -- and the
      // completion event computed from it -- is still exact.  Skipping
      // the materialize+reschedule here is what keeps a resolve cheap
      // when a change only re-derives the same allocation for most of
      // a large component.
      continue;
    }
    f.remaining = remaining_at(f, now);
    f.last_update = now;
    f.rate = rate;
    const double dt = f.remaining / f.rate;
    if (f.completion_event != 0) {
      f.completion_event = engine_.reschedule_after(f.completion_event, dt);
      assert(f.completion_event != 0 && "pending completion event vanished");
    } else {
      const FlowSlot slot = affected_[i];
      f.completion_event = engine_.schedule_after(
          dt, [this, slot] { on_flow_complete(slot); });
    }
  }

  if (fill_observer_) {
    fill_observer_(affected_, full ? live_links_ : component_links_,
                   rates_scratch_);
  }
  if (crosscheck_ && !full) crosscheck_against_full();
}

void FlowNetwork::on_flow_complete(FlowSlot slot) {
  ActiveFlow& f = slots_[slot];
  f.completion_event = 0;
  assert(remaining_at(f, engine_.now()) < kDoneEpsilonBytes &&
         "completion event fired with bytes left");
  auto cb = std::move(f.done);
  remove_from_links(slot);
  f.in_use = false;
  f.done = nullptr;
  f.path.clear();
  f.link_slot.clear();
  f.rate = 0.0;
  f.remaining = 0.0;
  free_slots_.push_back(slot);
  --active_count_;
  schedule_resolve();
  cb(engine_.now());
}

void FlowNetwork::crosscheck_against_full() {
  std::vector<FlowSlot> all;
  all.reserve(active_count_);
  for (FlowSlot s = 0; s < slots_.size(); ++s) {
    if (slots_[s].in_use) all.push_back(s);
  }
  std::sort(all.begin(), all.end(), [this](FlowSlot a, FlowSlot b) {
    return slots_[a].seq < slots_[b].seq;
  });
  std::vector<double> full_rates;
  fill_rates(all, live_links_, full_rates);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double got = slots_[all[i]].rate;
    const double want = full_rates[i];
    // Identical except for the near-tie epsilon in bottleneck
    // detection, which can couple otherwise independent components at
    // the 1e-12 relative level; anything larger is a solver bug.
    if (std::abs(got - want) > 1e-9 * std::max(std::abs(want), 1.0)) {
      throw std::logic_error(
          "FlowNetwork crosscheck: incremental rate " + std::to_string(got) +
          " != full rate " + std::to_string(want) + " for flow seq " +
          std::to_string(slots_[all[i]].seq));
    }
  }
}

}  // namespace balbench::net
