// Independent max-min fairness certificate: checks an allocation
// without running any fill.  An allocation is max-min fair iff it is
// feasible and every flow crosses a saturated link on which no other
// flow gets more (Bertsekas & Gallager, Data Networks, sec. 6.5.2).
#pragma once

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "net/topology.hpp"

namespace balbench::net {

/// Returns "" if rates[i] (flow i crosses *paths[i]) is max-min fair on
/// `links`, else a description of the first violation.  Both tests are
/// relative to 1e-9: no link carries more than its capacity, and a
/// flow's bottleneck carries at least its capacity less that slack.
inline std::string maxmin_violation(
    const std::vector<Link>& links,
    const std::vector<const std::vector<LinkId>*>& paths,
    const std::vector<double>& rates) {
  constexpr double kTol = 1e-9;
  std::vector<double> load(links.size(), 0.0);
  std::vector<double> top(links.size(), 0.0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (LinkId l : *paths[i]) {
      const auto idx = static_cast<std::size_t>(l);
      load[idx] += rates[i];
      top[idx] = std::max(top[idx], rates[i]);
    }
  }
  std::ostringstream why;
  for (std::size_t l = 0; l < links.size(); ++l) {
    if (load[l] > links[l].bandwidth * (1.0 + kTol)) {
      why << "link " << l << " carries " << load[l] << " > capacity "
          << links[l].bandwidth;
      return why.str();
    }
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const bool bottlenecked =
        std::any_of(paths[i]->begin(), paths[i]->end(), [&](LinkId l) {
          const auto idx = static_cast<std::size_t>(l);
          return load[idx] >= links[idx].bandwidth * (1.0 - kTol) &&
                 rates[i] >= top[idx] * (1.0 - kTol);
        });
    if (!bottlenecked) {
      why << "flow " << i << " (rate " << rates[i]
          << ") crosses no saturated link on which its rate is maximal";
      return why.str();
    }
  }
  return "";
}

}  // namespace balbench::net
