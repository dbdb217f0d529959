#include "capacity/capacity_planner.h"

#include <algorithm>

#include "core/fidelity.h"
#include "graph/shortest_path.h"
#include "telemetry/pair_groups.h"

namespace smn::capacity {

// Reporting shim (see header). smn-lint: allow(hot-path-strings)
std::set<std::string> CapacityPlan::upgraded_names() const {
  std::set<std::string> names;  // smn-lint: allow(hot-path-strings)
  for (const LinkUpgrade& u : upgrades) names.insert(u.name);
  return names;
}

UtilizationSeries CapacityPlanner::compute_utilization(
    const telemetry::BandwidthLog& log) const {
  UtilizationSeries series;
  const graph::Digraph& g = wan_.graph();

  // Epoch index: the distinct timestamps, ascending. Rows come in runs of
  // one timestamp (a shipment's epoch, in either read order), so only the
  // first row of each run is collected and sorted.
  const auto timestamps = log.timestamps();
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    if (i == 0 || timestamps[i] != timestamps[i - 1]) series.epochs.push_back(timestamps[i]);
  }
  std::sort(series.epochs.begin(), series.epochs.end());
  series.epochs.erase(std::unique(series.epochs.begin(), series.epochs.end()),
                      series.epochs.end());
  const std::size_t epochs = series.epochs.size();
  series.by_link.assign(wan_.link_count(), std::vector<double>(epochs, 0.0));
  if (epochs == 0) return series;

  // Pairs in name order, each pair's rows in timestamp order: every
  // (edge, epoch) cell then adds its terms in the order a row-by-row pass
  // over the (timestamp, name)-sorted log adds them, so the sums are
  // bit-identical to that pass whatever order the rows arrive in. Each pair
  // is resolved and routed once.
  const util::IdSpace& ids = util::IdSpace::global();
  const telemetry::PairGroups groups(log);
  // Per-edge load per epoch.
  std::vector<std::vector<double>> edge_load(g.edge_count(), std::vector<double>(epochs, 0.0));
  for (const std::uint32_t k : groups.name_order()) {
    const util::PairId pair = groups.pair(k);
    const auto src = wan_.node_of(ids.pair_src(pair));
    const auto dst = wan_.node_of(ids.pair_dst(pair));
    if (!src || !dst || *src == *dst) continue;
    const auto path = graph::shortest_path(g, *src, *dst);
    if (!path || path->edges.empty()) continue;
    const auto ts = groups.timestamps(k);
    const auto bw = groups.bandwidths(k);
    // The pair's timestamps ascend, so its epoch index only moves forward,
    // mostly to the next epoch.
    auto epoch = series.epochs.begin();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (*epoch != ts[i] && *++epoch != ts[i]) {
        epoch = std::lower_bound(epoch, series.epochs.end(), ts[i]);
      }
      const auto e_idx = static_cast<std::size_t>(epoch - series.epochs.begin());
      for (const graph::EdgeId e : path->edges) edge_load[e][e_idx] += bw[i];
    }
  }

  for (std::size_t li = 0; li < wan_.link_count(); ++li) {
    const topology::WanLink& link = wan_.link(li);
    const double cap = link.capacity_gbps;
    if (cap <= 0.0) continue;
    for (std::size_t t = 0; t < epochs; ++t) {
      const double load = std::max(edge_load[link.forward][t], edge_load[link.backward][t]);
      series.by_link[li][t] = load / cap;
    }
  }
  return series;
}

CapacityPlan CapacityPlanner::plan_from_series(
    const UtilizationSeries& series, const std::vector<std::vector<double>>&) const {
  CapacityPlan plan;
  const std::size_t epochs = series.epochs.size();
  if (epochs == 0) return plan;

  for (std::size_t li = 0; li < wan_.link_count(); ++li) {
    const topology::WanLink& link = wan_.link(li);
    const auto& utils = series.by_link[li];
    std::size_t over = 0;
    double peak_util = 0.0;
    for (const double u : utils) {
      if (u > config_.utilization_threshold) ++over;
      peak_util = std::max(peak_util, u);
    }
    if (over == 0) continue;
    const double overload_fraction = static_cast<double>(over) / static_cast<double>(epochs);

    const graph::Edge& fwd = wan_.graph().edge(link.forward);
    const std::string name =
        wan_.graph().node_name(fwd.from) + "<->" + wan_.graph().node_name(fwd.to);

    if (config_.cross_layer) {
      // SMN mode: only sustained overloads, and only links with headroom.
      if (overload_fraction < config_.sustained_fraction) continue;
      if (!link.upgradable()) {
        plan.fiber_build_requests.push_back(name);
        continue;
      }
    } else if (!link.upgradable()) {
      // Naive mode files the proposal anyway — a wasted planning cycle,
      // since nothing can be installed.
      ++plan.wasted_proposals;
      continue;
    }

    LinkUpgrade upgrade;
    upgrade.link_index = li;
    upgrade.name = name;
    upgrade.old_capacity_gbps = link.capacity_gbps;
    upgrade.overload_fraction = overload_fraction;
    const double wanted = peak_util * link.capacity_gbps / config_.target_utilization;
    upgrade.proposed_capacity_gbps = std::min(wanted, link.fiber_limit_gbps);
    upgrade.fiber_limited = wanted > link.fiber_limit_gbps;
    if (upgrade.proposed_capacity_gbps > upgrade.old_capacity_gbps) {
      plan.total_added_gbps += upgrade.proposed_capacity_gbps - upgrade.old_capacity_gbps;
      plan.upgrades.push_back(std::move(upgrade));
    } else if (!config_.cross_layer) {
      ++plan.wasted_proposals;  // proposal with no installable capacity
    }
  }
  return plan;
}

CapacityPlan CapacityPlanner::plan(const telemetry::BandwidthLog& log) const {
  const UtilizationSeries series = compute_utilization(log);
  return plan_from_series(series, {});
}

CapacityPlan CapacityPlanner::plan_from_coarse(const telemetry::CoarseBandwidthLog& coarse,
                                               util::SimTime epoch) const {
  const telemetry::BandwidthLog reconstructed = coarse.reconstruct(epoch);
  return plan(reconstructed);
}

double CapacityPlanner::apply(topology::WanTopology& wan, const CapacityPlan& plan) {
  double installed = 0.0;
  for (const LinkUpgrade& u : plan.upgrades) {
    const double before = wan.link(u.link_index).capacity_gbps;
    const double after = wan.upgrade_link(u.link_index, u.proposed_capacity_gbps);
    installed += after - before;
  }
  return installed;
}

double plan_agreement(const CapacityPlan& a, const CapacityPlan& b) {
  return core::decision_agreement(a.upgraded_names(), b.upgraded_names());
}

}  // namespace smn::capacity
