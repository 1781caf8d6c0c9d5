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

/// One source's aggregate: the scenario finalize() of its contribution.
[[nodiscard]] DiversityResult to_diversity_result(
    const scenario::SourceContribution& contribution) {
  const scenario::ScenarioMetrics m = scenario::finalize(contribution);
  return {m.grc_paths, m.ma_paths, m.grc_pairs, m.ma_extra_pairs,
          m.mean_best_geodistance_km, m.transit_fees};
}

}  // namespace

/// The immutable unit the shared_mutex guards: one primed runner cache of
/// scored sources and the overlay of its composed state. rebase() copies,
/// mutates the copy, and swaps - readers keep old snapshots alive through
/// the shared_ptr.
struct QueryEngine::State {
  State(const topology::CompiledTopology& base, std::vector<AsId> sources,
        scenario::SweepConfig config)
      : runner(base, std::move(sources), config), overlay(base) {}

  scenario::SweepRunner<scenario::ScoredSource> runner;
  scenario::Overlay overlay;
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
  install([this](State& state) { state.runner.prime(scorer()); });
}

void QueryEngine::prime_restored(
    std::vector<scenario::SourcePathSet>&& baseline) {
  install([this, &baseline](State& state) {
    // state.overlay is still the base snapshot the sets were primed on.
    paths::MapOptions options;
    options.exec.pin_threads = config_.pin_threads;
    state.runner.restore_baseline(paths::map_indices(
        baseline.size(), config_.threads,
        [&](std::size_t i) {
          return aggregator_.score(state.overlay, std::move(baseline[i]));
        },
        options));
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
    const scenario::SourcePathSet& sets =
        state->runner.baseline()[it->second].paths;
    sink(sets.grc(), sets.ma());
    return;
  }
  util::require(src < base_->num_ases(), "QueryEngine: source out of range");
  engine_metrics().paths_cold.increment();
  const scenario::SourcePathSet sets =
      scenario::enumerate_length3(state->overlay, src);
  sink(sets.grc(), sets.ma());
}

DiversityResult QueryEngine::diversity(AsId src) const {
  const std::shared_ptr<const State> state = snapshot();
  const auto it = source_index_.find(src);
  if (it != source_index_.end()) {
    engine_metrics().paths_cache_hits.increment();
    return to_diversity_result(
        state->runner.baseline()[it->second].contribution);
  }
  util::require(src < base_->num_ases(), "QueryEngine: source out of range");
  engine_metrics().paths_cold.increment();
  return to_diversity_result(
      aggregator_.score(state->overlay, src).contribution);
}

QueryEngine::ContributionView QueryEngine::contributions() const {
  const std::shared_ptr<const State> state = snapshot();
  ContributionView view;
  view.sources = state->runner.baseline();
  view.pin = std::move(state);
  return view;
}

QueryEngine::WhatIfSlice QueryEngine::whatif_slice(
    const scenario::Delta& delta) const {
  const std::shared_ptr<const State> state = snapshot();
  WhatIfSlice slice;
  state->runner.evaluate_dirty_visit(
      delta, scorer(),
      [&](std::size_t i, const scenario::Overlay&,
          const scenario::ScoredSource& result) {
        // Only the contribution is folded: dropping each dirty path set
        // here keeps one alive per shard instead of the whole ball's.
        slice.dirty_positions.push_back(i);
        slice.fresh.push_back({{}, result.contribution});
      },
      &slice.stats);
  slice.baseline = state->runner.baseline();
  slice.pin = std::move(state);
  return slice;
}

void QueryEngine::rebase(const scenario::Delta& step) {
  const std::lock_guard<std::mutex> writer(rebase_mutex_);
  const std::shared_ptr<const State> current = snapshot();
  // Copy-on-rebase: the expensive work happens on a private clone while
  // readers keep serving the old snapshot. Only the step's invalidation
  // ball is re-scored: a source outside it keeps paths and contribution.
  auto next = std::make_shared<State>(*current);
  next->runner.rebase(step, scorer());
  next->overlay.clear();
  next->overlay.apply(next->runner.state());
  {
    const std::unique_lock<std::shared_mutex> lock(state_mutex_);
    state_ = std::move(next);
    ++epoch_;
  }
  engine_metrics().rebases.increment();
}

}  // namespace panagree::serve
