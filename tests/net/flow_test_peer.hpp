// Test access to FlowNetwork's private fill, and a reference copy of
// plain progressive filling to compare it with.
//
// reference_fill() is the fill loop FlowNetwork used before fills
// counted flows per link from the per-link flow sets and froze only
// bottleneck candidates: it rescans every live link and every unfixed
// flow's whole path each round.  It is kept verbatim (bar the stall
// report, which here just ends the loop) as the oracle the solver must
// match bit for bit, round grouping and near-tie drift included.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/flow.hpp"
#include "net/topology.hpp"

namespace balbench::net {

/// One fill as the solver saw it: the filled flows' paths in fill
/// (arrival) order and the rates the fill gave them.
struct FillRecord {
  std::vector<const std::vector<LinkId>*> paths;
  const std::vector<double>* rates = nullptr;
  /// Every flow on every link handed to the fill is one of the filled
  /// flows (the closed-set precondition of the per-link counts).
  bool closed = false;
};

/// Paths and committed rates of every active flow, in slot order.
struct ActiveState {
  std::vector<const std::vector<LinkId>*> paths;
  std::vector<double> rates;
};

class FlowNetworkTestPeer {
 public:
  /// Call `check` at the end of every resolve that runs a fill.
  static void on_fill(FlowNetwork& net,
                      std::function<void(const FillRecord&)> check) {
    net.fill_observer_ = [&net, check = std::move(check)](
                             const std::vector<FlowNetwork::FlowSlot>& flows,
                             const std::vector<LinkId>& links,
                             const std::vector<double>& rates) {
      FillRecord rec;
      rec.rates = &rates;
      std::unordered_set<FlowNetwork::FlowSlot> members;
      for (FlowNetwork::FlowSlot s : flows) {
        rec.paths.push_back(&net.slots_[s].path);
        members.insert(s);
      }
      rec.closed = true;
      for (LinkId l : links) {
        for (const auto& e : net.link_flows_[static_cast<std::size_t>(l)]) {
          if (members.count(e.flow) == 0) rec.closed = false;
        }
      }
      check(rec);
    };
  }

  static ActiveState active(const FlowNetwork& net) {
    ActiveState st;
    for (const auto& f : net.slots_) {
      if (!f.in_use) continue;
      st.paths.push_back(&f.path);
      st.rates.push_back(f.rate);
    }
    return st;
  }
};

/// Plain progressive filling over `paths` on links `links`:
/// rates[i] receives the max-min rate of the flow with path *paths[i].
/// Returns false if the loop stalled (rates of unfixed flows stay 0).
inline bool reference_fill(const std::vector<Link>& links,
                           const std::vector<const std::vector<LinkId>*>& paths,
                           std::vector<double>& rates) {
  std::vector<double> residual_(links.size(), 0.0);
  std::vector<int> flows_on_link_(links.size(), 0);
  std::vector<LinkId> touched_links_;
  std::vector<std::uint32_t> unfixed_;
  const auto& paths_scratch_ = paths;
  rates.assign(paths.size(), 0.0);
  for (std::uint32_t i = 0; i < paths.size(); ++i) {
    unfixed_.push_back(i);
    for (LinkId l : *paths_scratch_[i]) {
      const auto idx = static_cast<std::size_t>(l);
      if (flows_on_link_[idx] == 0) {
        touched_links_.push_back(l);
        residual_[idx] = links[idx].bandwidth;
      }
      ++flows_on_link_[idx];
    }
  }

  while (!unfixed_.empty()) {
    double min_share = std::numeric_limits<double>::max();
    std::size_t live = 0;
    for (LinkId l : touched_links_) {
      const auto idx = static_cast<std::size_t>(l);
      if (flows_on_link_[idx] > 0) {
        touched_links_[live++] = l;
        min_share = std::min(min_share, residual_[idx] / flows_on_link_[idx]);
      }
    }
    touched_links_.resize(live);
    if (min_share == std::numeric_limits<double>::max()) return false;

    // Freeze every unfixed flow that crosses a bottleneck link.
    const double eps = min_share * 1e-12;
    const auto is_bottleneck = [&](LinkId l) {
      const auto idx = static_cast<std::size_t>(l);
      return residual_[idx] / flows_on_link_[idx] <= min_share + eps;
    };
    std::size_t kept = 0;
    for (std::size_t i = 0; i < unfixed_.size(); ++i) {
      const std::uint32_t fi = unfixed_[i];
      const auto& path = *paths_scratch_[fi];
      const bool frozen =
          std::any_of(path.begin(), path.end(), is_bottleneck);
      if (frozen) {
        rates[fi] = min_share;
        for (LinkId l : path) {
          const auto idx = static_cast<std::size_t>(l);
          residual_[idx] = std::max(0.0, residual_[idx] - min_share);
          --flows_on_link_[idx];
        }
      } else {
        unfixed_[kept++] = fi;
      }
    }
    if (kept == unfixed_.size()) return false;
    unfixed_.resize(kept);
  }
  return true;
}

/// "" if the fill in `rec` ran over a closed flow set and gave every
/// flow bitwise the rate reference_fill() gives it, else the first
/// difference.
inline std::string fill_mismatch(const std::vector<Link>& links,
                                 const FillRecord& rec) {
  std::ostringstream why;
  if (!rec.closed) return "flow set not closed under link sharing";
  std::vector<double> want;
  if (!reference_fill(links, rec.paths, want)) return "reference fill stalled";
  if (want.size() != rec.rates->size()) return "rate count differs";
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double got = (*rec.rates)[i];
    if (std::bit_cast<std::uint64_t>(want[i]) !=
        std::bit_cast<std::uint64_t>(got)) {
      why.precision(17);
      why << "flow " << i << ": reference " << want[i] << " vs " << got;
      return why.str();
    }
  }
  return "";
}

}  // namespace balbench::net
