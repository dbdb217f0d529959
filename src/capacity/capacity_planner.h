// Capacity planning (§4, [38, 39]): "operators follow heuristics like
// augmenting the bandwidth on a link if its utilization consistently
// exceeds a threshold". The planner derives per-link utilization time
// series by routing logged demands, flags links whose utilization exceeds
// the threshold for a sustained fraction of epochs, and proposes upgrades
// subject to fiber constraints.
//
// Two operating modes reproduce war story 1 ("Capacity Planning and TE in
// the Dark"):
//   * naive mode (siloed team): upgrades any link over threshold, including
//     links TE overloaded only transiently and links with no fiber
//     headroom — wasted planning cycles;
//   * SMN mode (cross-layer): requires sustained overload and skips
//     fiber-locked links, emitting a separate fiber-build request instead.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "telemetry/time_coarsening.h"
#include "topology/wan.h"

namespace smn::capacity {

struct PlannerConfig {
  double utilization_threshold = 0.8;
  /// Fraction of epochs a link must exceed the threshold to count as
  /// sustained (SMN mode). Naive mode upgrades on any single exceedance.
  double sustained_fraction = 0.3;
  /// Proposed capacity = peak_load / target_utilization.
  double target_utilization = 0.6;
  /// Cross-layer behavior: sustained-overload filter + fiber awareness.
  bool cross_layer = true;
};

struct LinkUpgrade {
  std::size_t link_index = 0;
  std::string name;  ///< "srcDC<->dstDC"
  double old_capacity_gbps = 0.0;
  double proposed_capacity_gbps = 0.0;
  /// True when the proposal hit the fiber ceiling (partially or fully
  /// unrealizable in the ground).
  bool fiber_limited = false;
  /// Fraction of epochs over threshold that triggered this upgrade.
  double overload_fraction = 0.0;
};

struct CapacityPlan {
  std::vector<LinkUpgrade> upgrades;
  /// Links that need new fiber builds (over threshold but zero headroom);
  /// only populated in cross-layer mode, where the SMN routes this feedback
  /// to the external provider rather than wasting an upgrade ticket.
  std::vector<std::string> fiber_build_requests;
  /// Upgrades proposed on links with no headroom (naive mode's wasted
  /// planning cycles).
  std::size_t wasted_proposals = 0;
  double total_added_gbps = 0.0;

  // Reporting API: link names for operator-facing plan output, built once
  // per planning cycle — not a per-record path.
  // smn-lint: allow(hot-path-strings)
  std::set<std::string> upgraded_names() const;
};

/// Per-link utilization series computed by shortest-path-routing each
/// epoch's demands.
struct UtilizationSeries {
  /// [link][epoch] utilization (max of the two directions).
  std::vector<std::vector<double>> by_link;
  std::vector<util::SimTime> epochs;
};

class CapacityPlanner {
 public:
  CapacityPlanner(const topology::WanTopology& wan, PlannerConfig config)
      : wan_(wan), config_(config) {}
  /// The planner keeps a reference to the topology; temporaries would dangle.
  CapacityPlanner(topology::WanTopology&&, PlannerConfig) = delete;

  /// Routes each epoch's records along shortest paths (one per pair) and
  /// derives link utilizations. Records naming unknown datacenters are
  /// ignored. Each (edge, epoch) load sums its terms in (pair name, row)
  /// order, as a pass over the (timestamp, name)-sorted log would, so the
  /// sorted fine_range() read and the same rows in storage order give
  /// bit-identical series.
  UtilizationSeries compute_utilization(const telemetry::BandwidthLog& log) const;

  /// Plans from a fine-grained log.
  CapacityPlan plan(const telemetry::BandwidthLog& log) const;

  /// Plans from coarse summaries by reconstructing a per-epoch log first
  /// (window means held flat): the §4 fidelity question for planning.
  CapacityPlan plan_from_coarse(const telemetry::CoarseBandwidthLog& coarse,
                                util::SimTime epoch = util::kTelemetryEpoch) const;

  /// Applies `plan` to a mutable copy of the topology semantics: raises
  /// capacities (clamped by fiber limits) on `wan`. Returns Gbps installed.
  static double apply(topology::WanTopology& wan, const CapacityPlan& plan);

  const PlannerConfig& config() const noexcept { return config_; }

 private:
  CapacityPlan plan_from_series(const UtilizationSeries& series,
                                const std::vector<std::vector<double>>& load_by_link) const;

  const topology::WanTopology& wan_;
  PlannerConfig config_;
};

/// Jaccard agreement between the upgrade decisions of two plans — the
/// decision-fidelity metric for coarsened planning inputs.
double plan_agreement(const CapacityPlan& a, const CapacityPlan& b);

}  // namespace smn::capacity
