// The one way panagree-serve and panagree-query (--direct / --bench)
// build the serving stack, factored out so the two sides cannot drift:
// the byte-identity contract of the serving layer ("server responses ==
// direct library calls") only holds if both construct the shards from
// the same topology, the same source sample (sample seed included), the
// same economy, and the same shard partition, and score through the same
// router configuration.
//
// Sharding: the canonical source sample is split into `shards`
// contiguous ranges (shard s owns sources [s*n/shards, (s+1)*n/shards)),
// one QueryEngine per range, fronted by a serve::ShardRouter - the one
// request front end at every shard count, 1 included.
//
// Cold start: prime() adopts the snapshot's primed-baseline sections
// when the mmap'd snapshot carries them for exactly our source sample,
// skipping the per-source path enumeration entirely (the expensive part
// of priming); otherwise it enumerates fresh. Either way the router
// baseline is refreshed, so the context is serve-ready afterwards.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/serve/query_engine.hpp"
#include "panagree/serve/shard_router.hpp"

namespace panagree::servecfg {

/// Everything a serving process keeps resident, in construction order
/// (each member borrows from the earlier ones). Not movable: the engines
/// hold pointers into the bundle and the router holds the engines.
struct ServeContext {
  /// `snapshot_override` follows benchcfg::load_internet semantics (a
  /// --snapshot flag wins over PANAGREE_SNAPSHOT / PANAGREE_CAIDA /
  /// the synthetic generator); `sources_n` is the cached sample size,
  /// sampled with the benches' shared seed.
  ServeContext(const char* snapshot_override, std::size_t sources_n,
               std::size_t threads, std::size_t max_batch,
               std::size_t shards = 1)
      : net(benchcfg::load_internet(0, snapshot_override)),
        economy(econ::make_default_economy(net.graph())),
        sources(diversity::sample_sources(net.graph(), sources_n,
                                          benchcfg::kSampleSeed)),
        engines(make_engines(net, economy, sources, shards, threads)),
        router(engine_pointers(engines), router_config(max_batch)) {}

  ServeContext(const ServeContext&) = delete;
  ServeContext& operator=(const ServeContext&) = delete;

  /// Primes every shard and publishes the router baseline. Returns true
  /// when the baseline was adopted from the snapshot's primed-baseline
  /// sections (mmap-only cold start: no path enumeration, the
  /// sweep.prime counter stays untouched), false when it was computed
  /// fresh. Serve through `router` afterwards.
  bool prime() {
    const bool restored = try_restore_from_snapshot();
    if (!restored) {
      for (const std::unique_ptr<serve::QueryEngine>& engine : engines) {
        engine->prime();
      }
    }
    router.refresh_baseline();
    return restored;
  }

  benchcfg::Internet net;
  econ::Economy economy;
  std::vector<topology::AsId> sources;
  /// The shard engines, in partition order; `router` fronts them.
  std::vector<std::unique_ptr<serve::QueryEngine>> engines;
  serve::ShardRouter router;

 private:
  static serve::RouterConfig router_config(std::size_t max_batch) {
    serve::RouterConfig config;
    config.max_batch = max_batch;
    return config;
  }

  static std::vector<std::unique_ptr<serve::QueryEngine>> make_engines(
      const benchcfg::Internet& net, const econ::Economy& economy,
      const std::vector<topology::AsId>& sources, std::size_t shards,
      std::size_t threads) {
    util::require(shards > 0, "serve: need at least one shard");
    util::require(shards <= std::max<std::size_t>(sources.size(), 1),
                  "serve: more shards than sampled sources");
    std::vector<std::unique_ptr<serve::QueryEngine>> engines;
    engines.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * sources.size() / shards;
      const std::size_t end = (s + 1) * sources.size() / shards;
      engines.push_back(std::make_unique<serve::QueryEngine>(
          net.compiled(), &net.world(), &economy,
          std::vector<topology::AsId>(sources.begin() + begin,
                                      sources.begin() + end),
          serve::EngineConfig{threads}));
    }
    return engines;
  }

  static std::vector<serve::QueryEngine*> engine_pointers(
      const std::vector<std::unique_ptr<serve::QueryEngine>>& engines) {
    std::vector<serve::QueryEngine*> pointers;
    pointers.reserve(engines.size());
    for (const std::unique_ptr<serve::QueryEngine>& engine : engines) {
      pointers.push_back(engine.get());
    }
    return pointers;
  }

  /// Adopts the snapshot's primed baseline if it matches our source
  /// sample exactly. The baseline caches are per-source path sets, so
  /// any drift in the sample (different --sources, a different seed, a
  /// recompiled topology) makes them useless - fall back to enumerating.
  bool try_restore_from_snapshot() {
    const storage::MappedSnapshot* snap = net.snapshot();
    if (snap == nullptr || !snap->primed_baseline().has_value()) {
      return false;
    }
    const storage::ShardPlanView& plan = *snap->shard_plan();
    if (plan.sources.size() != sources.size() ||
        !std::equal(plan.sources.begin(), plan.sources.end(),
                    sources.begin())) {
      return false;
    }
    const storage::PrimedBaselineView& baseline = *snap->primed_baseline();
    // Rebuild each source's GRC/MA path sets from the flat (src, mid,
    // dst) triples - GRC paths first, then MA, per source - and hand
    // them to the owning shard.
    std::size_t global = 0;
    for (const std::unique_ptr<serve::QueryEngine>& engine : engines) {
      std::vector<scenario::SourcePathSet> results;
      results.reserve(engine->sources().size());
      for (std::size_t i = 0; i < engine->sources().size();
           ++i, ++global) {
        scenario::SourcePathSet set;
        const std::size_t grc = baseline.grc_counts[global];
        const std::size_t first = baseline.path_begin[global];
        const std::size_t last = baseline.path_begin[global + 1];
        for (std::size_t p = first; p < last; ++p) {
          const diversity::Length3Path path{
              topology::AsId{baseline.path_words[3 * p]},
              topology::AsId{baseline.path_words[3 * p + 1]},
              topology::AsId{baseline.path_words[3 * p + 2]}};
          if (p - first < grc) {
            set.add_grc(path);
          } else {
            set.add_ma(path);
          }
        }
        results.push_back(std::move(set));
      }
      engine->prime_restored(std::move(results));
    }
    return true;
  }
};

}  // namespace panagree::servecfg
