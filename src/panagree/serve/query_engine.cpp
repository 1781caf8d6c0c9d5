#include "panagree/serve/query_engine.hpp"

#include <utility>

#include "panagree/obs/metrics.hpp"

namespace panagree::serve {

namespace {

// Engine-level metrics (see README "Observability"). References cached
// once; every record is a relaxed add.
struct EngineMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& paths_cache_hits = reg.counter("engine.paths_cache_hits");
  obs::Counter& paths_cold = reg.counter("engine.paths_cold");
  obs::Counter& rebases = reg.counter("engine.rebases");
};

[[nodiscard]] EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

scenario::SourcePathSet enumerate(const scenario::Overlay& overlay,
                                  AsId src) {
  return scenario::enumerate_length3(overlay, src);
}

[[nodiscard]] DiversityResult to_diversity_result(
    const scenario::SourceContribution& contribution) {
  DiversityResult result;
  result.grc_paths = contribution.grc_paths;
  result.ma_paths = contribution.ma_paths;
  result.grc_pairs = contribution.grc_pairs;
  result.ma_extra_pairs = contribution.ma_extra_pairs;
  result.mean_best_geodistance_km =
      contribution.km_pairs > 0
          ? contribution.km_sum /
                static_cast<double>(contribution.km_pairs)
          : 0.0;
  result.transit_fees = contribution.transit_fees;
  return result;
}

}  // namespace

/// The immutable unit the shared_mutex guards: one primed runner cache,
/// the overlay of its composed state, and the additive per-source
/// contributions the router splices what-if scores from. rebase() copies,
/// mutates the copy, and swaps - readers keep old snapshots alive through
/// the shared_ptr.
struct QueryEngine::State {
  State(const topology::CompiledTopology& base, std::vector<AsId> sources,
        scenario::SweepConfig config)
      : runner(base, std::move(sources), config), overlay(base) {}

  scenario::SweepRunner<scenario::SourcePathSet> runner;
  scenario::Overlay overlay;
  std::vector<scenario::SourceContribution> contribs;

  /// Recomputes contribs from the runner's cache (after prime or
  /// rebase). Pure folds over already-enumerated path sets.
  void refresh_contributions(const scenario::MetricsAggregator& aggregator) {
    const std::vector<scenario::SourcePathSet>& cache = runner.baseline();
    contribs.clear();
    contribs.reserve(cache.size());
    scenario::MetricsAggregator::Scratch scratch;
    for (const scenario::SourcePathSet& sets : cache) {
      contribs.push_back(aggregator.contribution(overlay, sets, scratch));
    }
  }
};

QueryEngine::QueryEngine(const topology::CompiledTopology& base,
                         const geo::World* world,
                         const econ::Economy* economy,
                         std::vector<AsId> sources, EngineConfig config)
    : base_(&base),
      aggregator_(base, world, economy),
      sources_(std::move(sources)),
      config_(config) {
  source_index_.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    util::require(sources_[i] < base.num_ases(),
                  "QueryEngine: source out of range");
    source_index_.emplace(sources_[i], i);
  }
}

QueryEngine::~QueryEngine() = default;

void QueryEngine::prime() {
  install([](State& state) { state.runner.prime(enumerate); });
}

void QueryEngine::prime_restored(
    std::vector<scenario::SourcePathSet>&& baseline) {
  install([&baseline](State& state) {
    state.runner.restore_baseline(std::move(baseline));
  });
}

void QueryEngine::install(const std::function<void(State&)>& fill) {
  const std::lock_guard<std::mutex> writer(rebase_mutex_);
  {
    const std::shared_lock<std::shared_mutex> lock(state_mutex_);
    if (state_ != nullptr) {
      return;
    }
  }
  scenario::SweepConfig sweep;
  sweep.threads = config_.threads;
  sweep.dirty_radius = scenario::kLength3DirtyRadius;
  sweep.exec.pin_threads = config_.pin_threads;
  auto state = std::make_shared<State>(*base_, sources_, sweep);
  fill(*state);
  state->refresh_contributions(aggregator_);
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  state_ = std::move(state);
}

std::shared_ptr<const QueryEngine::State> QueryEngine::snapshot() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  util::require(state_ != nullptr, "QueryEngine: prime() first");
  return state_;
}

std::uint64_t QueryEngine::epoch() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return epoch_;
}

void QueryEngine::paths(AsId src, const PathsSink& sink) const {
  const std::shared_ptr<const State> state = snapshot();
  const auto it = source_index_.find(src);
  if (it != source_index_.end()) {
    engine_metrics().paths_cache_hits.increment();
    const scenario::SourcePathSet& sets = state->runner.baseline()[it->second];
    sink(sets.grc(), sets.ma());
    return;
  }
  util::require(src < base_->num_ases(), "QueryEngine: source out of range");
  engine_metrics().paths_cold.increment();
  const scenario::SourcePathSet sets = enumerate(state->overlay, src);
  sink(sets.grc(), sets.ma());
}

DiversityResult QueryEngine::diversity(AsId src) const {
  const std::shared_ptr<const State> state = snapshot();
  const auto it = source_index_.find(src);
  if (it != source_index_.end()) {
    engine_metrics().paths_cache_hits.increment();
    return to_diversity_result(state->contribs[it->second]);
  }
  util::require(src < base_->num_ases(), "QueryEngine: source out of range");
  engine_metrics().paths_cold.increment();
  const scenario::SourcePathSet sets = enumerate(state->overlay, src);
  return to_diversity_result(aggregator_.contribution(state->overlay, sets));
}

QueryEngine::ContributionView QueryEngine::contributions() const {
  const std::shared_ptr<const State> state = snapshot();
  ContributionView view;
  view.contribs = state->contribs;
  view.pin = std::move(state);
  return view;
}

QueryEngine::WhatIfSlice QueryEngine::whatif_slice(
    const scenario::Delta& delta) const {
  const std::shared_ptr<const State> state = snapshot();
  WhatIfSlice slice;
  scenario::MetricsAggregator::Scratch scratch;
  state->runner.evaluate_dirty_visit(
      delta, enumerate,
      [&](std::size_t i, const scenario::Overlay& overlay,
          const scenario::SourcePathSet& result) {
        slice.dirty_positions.push_back(i);
        slice.fresh.push_back(
            aggregator_.contribution(overlay, result, scratch));
      },
      &slice.stats);
  slice.baseline = state->contribs;
  slice.pin = std::move(state);
  return slice;
}

void QueryEngine::rebase(const scenario::Delta& step) {
  const std::lock_guard<std::mutex> writer(rebase_mutex_);
  const std::shared_ptr<const State> current = snapshot();
  // Copy-on-rebase: the expensive work happens on a private clone while
  // readers keep serving the old snapshot.
  auto next = std::make_shared<State>(*current);
  next->runner.rebase(step, enumerate);
  next->overlay.clear();
  next->overlay.apply(next->runner.state());
  next->refresh_contributions(aggregator_);
  {
    const std::unique_lock<std::shared_mutex> lock(state_mutex_);
    state_ = std::move(next);
    ++epoch_;
  }
  engine_metrics().rebases.increment();
}

}  // namespace panagree::serve
