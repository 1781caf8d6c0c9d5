#include "panagree/scenario/metrics.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "panagree/geo/coordinates.hpp"
#include "panagree/paths/enumerator.hpp"
#include "panagree/topology/generator.hpp"

namespace panagree::scenario {

SourcePathSet enumerate_length3(const Overlay& overlay, AsId src) {
  const paths::BasicPathEnumerator<Overlay> enumerator(overlay);
  SourcePathSet out;
  enumerator.visit_paths(src, 3, paths::ValleyFreeStep{},
                         [&](const paths::Path& path) {
                           if (path.size() == 3) {
                             out.add_grc({path[0], path[1], path[2]});
                           }
                           return true;
                         });
  enumerator.visit_paths(src, 3,
                         paths::BasicMaLength3Step<Overlay>(overlay, true),
                         [&](const paths::Path& path) {
                           if (path.size() == 3) {
                             out.add_ma({path[0], path[1], path[2]});
                           }
                           return true;
                         });
  return out;
}

MetricsDelta subtract(const ScenarioMetrics& scenario,
                      const ScenarioMetrics& baseline) {
  MetricsDelta delta;
  delta.paths =
      static_cast<double>(scenario.grc_paths + scenario.ma_paths) -
      static_cast<double>(baseline.grc_paths + baseline.ma_paths);
  delta.pairs =
      static_cast<double>(scenario.grc_pairs + scenario.ma_extra_pairs) -
      static_cast<double>(baseline.grc_pairs + baseline.ma_extra_pairs);
  delta.mean_best_geodistance_km = scenario.mean_best_geodistance_km -
                                   baseline.mean_best_geodistance_km;
  delta.transit_fees = scenario.transit_fees - baseline.transit_fees;
  return delta;
}

double operator_utility(const MetricsDelta& delta,
                        const UtilityWeights& weights) {
  return -delta.transit_fees + weights.per_new_pair * delta.pairs -
         weights.per_km_regression * delta.mean_best_geodistance_km;
}

void splice_contributions(SourceContribution& total,
                          std::span<const ScoredSource> state,
                          std::span<const std::size_t> dirty_positions,
                          std::span<const ScoredSource> fresh) {
  PANAGREE_ASSERT(dirty_positions.size() == fresh.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (next < dirty_positions.size() && dirty_positions[next] == i) {
      total += fresh[next].contribution;
      ++next;
    } else {
      total += state[i].contribution;
    }
  }
  PANAGREE_ASSERT(next == dirty_positions.size());
}

ScenarioMetrics finalize(const SourceContribution& total) {
  ScenarioMetrics metrics;
  metrics.grc_paths = total.grc_paths;
  metrics.ma_paths = total.ma_paths;
  metrics.grc_pairs = total.grc_pairs;
  metrics.ma_extra_pairs = total.ma_extra_pairs;
  metrics.transit_fees = total.transit_fees;
  if (total.km_pairs > 0) {
    metrics.mean_best_geodistance_km =
        total.km_sum / static_cast<double>(total.km_pairs);
  }
  return metrics;
}

DiversityCounts count_diversity(
    std::span<const SourcePathSet* const> results) {
  DiversityCounts out;
  // Reused across sources: per source, the sorted-unique destination lists
  // of the GRC set and the MA set decide pair membership.
  std::vector<AsId> grc_dsts;
  std::vector<AsId> ma_dsts;
  for (const SourcePathSet* result : results) {
    out.grc_paths += result->grc().size();
    out.ma_paths += result->ma().size();
    grc_dsts.clear();
    ma_dsts.clear();
    for (const diversity::Length3Path& path : result->grc()) {
      grc_dsts.push_back(path.dst);
    }
    for (const diversity::Length3Path& path : result->ma()) {
      ma_dsts.push_back(path.dst);
    }
    std::sort(grc_dsts.begin(), grc_dsts.end());
    grc_dsts.erase(std::unique(grc_dsts.begin(), grc_dsts.end()),
                   grc_dsts.end());
    std::sort(ma_dsts.begin(), ma_dsts.end());
    ma_dsts.erase(std::unique(ma_dsts.begin(), ma_dsts.end()),
                  ma_dsts.end());
    out.grc_pairs += grc_dsts.size();
    for (const AsId dst : ma_dsts) {
      if (!std::binary_search(grc_dsts.begin(), grc_dsts.end(), dst)) {
        ++out.ma_extra_pairs;
      }
    }
  }
  return out;
}

MetricsAggregator::MetricsAggregator(const CompiledTopology& base,
                                     const geo::World* world,
                                     const econ::Economy* economy)
    : base_(&base), world_(world), economy_(economy) {
  if (world_ != nullptr) {
    geodesy_.emplace(base.graph(), *world_);
  }
  // Estimated facilities of added links must not out-minimize real ones:
  // cap at the densest base link (falling back to the generator default
  // when the base graph stores no facilities at all).
  std::size_t max_stored = 0;
  for (const topology::Link& link : base.graph().links()) {
    max_stored = std::max(max_stored, link.facilities.size());
  }
  if (max_stored > 0) {
    max_estimated_facilities_ = max_stored;
  }
}

double MetricsAggregator::path_geodistance_km(const Overlay& overlay,
                                              AsId s, AsId m, AsId d) const {
  return path_geodistance_km(overlay, s, m, d, /*memo=*/nullptr);
}

double MetricsAggregator::path_geodistance_km(
    const Overlay& overlay, AsId s, AsId m, AsId d,
    std::unordered_map<std::uint32_t, std::vector<std::size_t>>* memo)
    const {
  util::require(geodesy_.has_value(),
                "MetricsAggregator: constructed without a geo::World");
  const auto l1 = overlay.link_between(s, m);
  const auto l2 = overlay.link_between(m, d);
  util::require(l1.has_value() && l2.has_value(),
                "path_geodistance_km: path hops must be linked");
  if (*l1 < overlay.first_added_link_id() &&
      *l2 < overlay.first_added_link_id()) {
    return geodesy_->path_geodistance_km(s, m, d);
  }
  // An added link stores no facilities yet: estimate candidates from the
  // endpoint PoP sets, the same rule the generator assigns real links
  // with, so the what-if hop is priced like its recompiled version. The
  // estimate depends only on the link, so Scratch callers memoize it per
  // synthetic link id instead of redoing the PoP search per path.
  const topology::Graph& graph = base_->graph();
  const auto estimate = [&](std::uint32_t link_id) {
    const LinkChange& change = overlay.added_link(link_id);
    topology::Link link;
    link.a = change.a;
    link.b = change.b;
    link.type = change.type;
    return topology::estimate_link_facilities(graph, *world_, link,
                                              max_estimated_facilities_);
  };
  // Stable storage for a non-memoized estimate of each hop.
  std::vector<std::size_t> local[2];
  const auto facilities_of =
      [&](std::uint32_t link_id,
          std::size_t hop) -> const std::vector<std::size_t>& {
    if (link_id < overlay.first_added_link_id()) {
      return graph.link(link_id).facilities;
    }
    if (memo != nullptr) {
      const auto [it, inserted] = memo->try_emplace(link_id);
      if (inserted) {
        it->second = estimate(link_id);
      }
      return it->second;
    }
    local[hop] = estimate(link_id);
    return local[hop];
  };
  const std::vector<std::size_t>& facilities_sm = facilities_of(*l1, 0);
  const std::vector<std::size_t>& facilities_md = facilities_of(*l2, 1);
  if (!facilities_sm.empty() && !facilities_md.empty()) {
    return geodesy_->path_geodistance_km(s, m, d, facilities_sm,
                                         facilities_md);
  }
  // Last resort - an endpoint without PoPs: endpoint-centroid legs.
  return geo::great_circle_km(graph.info(s).centroid,
                              graph.info(m).centroid) +
         geo::great_circle_km(graph.info(m).centroid,
                              graph.info(d).centroid);
}

double MetricsAggregator::path_fee(const Overlay& overlay,
                                   std::span<const AsId> path,
                                   double volume) const {
  double fee = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::optional<NeighborRole> role =
        overlay.role_of(path[i], path[i + 1]);
    PANAGREE_ASSERT(role.has_value());
    switch (*role) {
      case NeighborRole::kProvider:
        fee += economy_->link_pricing(path[i + 1], path[i])(volume);
        break;
      case NeighborRole::kCustomer:
        fee += economy_->link_pricing(path[i], path[i + 1])(volume);
        break;
      case NeighborRole::kPeer:
        break;
    }
  }
  return fee;
}

SourceContribution MetricsAggregator::contribution(
    const Overlay& overlay, const SourcePathSet& result,
    Scratch& scratch) const {
  if (scratch.overlay_ != &overlay) {
    // Working memory follows the scenario: the added-facility memo keys
    // synthetic link ids of this overlay only.
    scratch.overlay_ = &overlay;
    scratch.added_facilities_.clear();
  }
  SourceContribution out;
  out.grc_paths = result.grc().size();
  out.ma_paths = result.ma().size();

  const topology::Graph& graph = base_->graph();
  const auto km_of =
      [&](const diversity::Length3Path& p) -> std::optional<double> {
    if (!geodesy_.has_value() || !graph.info(p.src).has_geo ||
        !graph.info(p.mid).has_geo || !graph.info(p.dst).has_geo) {
      return std::nullopt;
    }
    return path_geodistance_km(overlay, p.src, p.mid, p.dst,
                               &scratch.added_facilities_);
  };

  using Best = Scratch::Best;
  std::unordered_map<AsId, Best>& best = scratch.best_;
  best.clear();
  const auto consider = [&](const diversity::Length3Path& p, bool grc) {
    auto [it, inserted] = best.try_emplace(p.dst);
    Best& slot = it->second;
    slot.grc_reachable = slot.grc_reachable || grc;
    const std::optional<double> km = km_of(p);
    // Without geodata the first-enumerated path wins (deterministic);
    // with it, the strictly shortest one.
    if (inserted) {
      slot.path = p;
      if (km.has_value()) {
        slot.km = *km;
        slot.has_km = true;
      }
      return;
    }
    if (km.has_value() && *km < slot.km) {
      slot.path = p;
      slot.km = *km;
      slot.has_km = true;
    }
  };
  for (const diversity::Length3Path& p : result.grc()) {
    consider(p, /*grc=*/true);
  }
  for (const diversity::Length3Path& p : result.ma()) {
    consider(p, /*grc=*/false);
  }

  // Fold in ascending destination order, not hash-bucket order: the
  // float sums must be a pure function of (overlay, result), or a
  // contribution computed with a fresh Scratch would differ at ULP level
  // from one computed mid-sequence with a grown bucket array - and the
  // serving layer splices independently computed contributions into
  // cached ones (byte-identity contract).
  auto& dsts = scratch.dst_order_;
  dsts.clear();
  dsts.reserve(best.size());
  for (const auto& [dst, slot] : best) {
    dsts.emplace_back(dst, &slot);
  }
  std::sort(dsts.begin(), dsts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [dst, slot_ptr] : dsts) {
    const Best& slot = *slot_ptr;
    if (slot.grc_reachable) {
      ++out.grc_pairs;
    } else {
      ++out.ma_extra_pairs;
    }
    if (slot.has_km) {
      out.km_sum += slot.km;
      ++out.km_pairs;
    }
    const AsId hops[3] = {slot.path.src, slot.path.mid, slot.path.dst};
    out.transit_fees += path_fee(overlay, hops, 1.0);
  }
  return out;
}

ScoredSource MetricsAggregator::score(const Overlay& overlay,
                                      SourcePathSet&& paths) const {
  ScoredSource out;
  out.paths = std::move(paths);
  out.contribution = contribution(overlay, out.paths);
  return out;
}

ScenarioMetrics MetricsAggregator::aggregate(
    const Overlay& overlay, const std::vector<AsId>& sources,
    const std::vector<const SourcePathSet*>& results) const {
  util::require(sources.size() == results.size(),
                "MetricsAggregator::aggregate: sources/results mismatch");
  Scratch scratch;
  SourceContribution total;
  for (const SourcePathSet* result : results) {
    total += contribution(overlay, *result, scratch);
  }
  return finalize(total);
}

ScenarioMetrics MetricsAggregator::aggregate(
    const Overlay& overlay, const std::vector<AsId>& sources,
    const std::vector<SourcePathSet>& results) const {
  std::vector<const SourcePathSet*> refs;
  refs.reserve(results.size());
  for (const SourcePathSet& result : results) {
    refs.push_back(&result);
  }
  return aggregate(overlay, sources, refs);
}

}  // namespace panagree::scenario
