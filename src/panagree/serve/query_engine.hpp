// One serving shard: a thread-safe, long-running owner of one topology
// snapshot and one primed scenario::SweepRunner over a slice of the
// canonical source sample. Every batch tool in this repo loads,
// enumerates, prints, and exits; a shard keeps the expensive state
// resident and answers out of it:
//
//   * paths        - the §VI GRC + MA length-3 path sets of a source.
//                    Sampled sources are served zero-copy out of the
//                    runner's PathPool-backed per-source cache; other
//                    sources are enumerated on the fly (cold).
//   * diversity    - the per-source diversity / geodistance / fee
//                    aggregate (scenario::SourceContribution, finalized).
//   * whatif_slice - the per-source inputs of a what-if score: only the
//                    sources inside the delta's invalidation ball are
//                    re-enumerated (the SweepRunner machinery), never a
//                    full recompute.
//
// Requests reach shards only through serve::ShardRouter, the one wire
// front end: it parses request lines, memoizes what-ifs per epoch,
// splices the shards' slices in canonical source order, and scores the
// fold once.
//
// Concurrency model: read-mostly. The shard state (runner cache, overlay,
// per-source contributions) lives behind a std::shared_mutex as an
// immutable shared_ptr snapshot; readers take the shared lock only long
// enough to copy the pointer and then work lock-free on their snapshot.
// rebase() (committing a deployment program step) is copy-on-rebase: it
// clones the state, folds the step into the clone's cache (recomputing
// only the step's invalidation ball), and swaps the pointer under the
// exclusive lock - in-flight readers keep their old snapshot alive, so
// readers never block on a rebase.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "panagree/econ/business.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/wire.hpp"

namespace panagree::serve {

struct EngineConfig {
  /// Worker threads of prime()/rebase() per-source fan-outs
  /// (0 = hardware concurrency). Request handling itself runs on the
  /// caller's thread.
  std::size_t threads = 0;
  /// Pin the prime()/rebase() fan-out workers to cpus (NUMA-blocked; see
  /// paths::ExecPolicy). Results are identical either way.
  bool pin_threads = false;
};

class QueryEngine {
 public:
  /// `base` is the served snapshot; `world`/`economy` feed the
  /// geodistance/fee aggregates (nullptr disables them, like
  /// MetricsAggregator). `sources` is the cached sample - every other
  /// source is served cold. All referenced objects must outlive the
  /// engine. Call prime() before serving.
  QueryEngine(const topology::CompiledTopology& base,
              const geo::World* world, const econ::Economy* economy,
              std::vector<AsId> sources, EngineConfig config = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enumerates and caches the baseline of every sampled source and its
  /// per-source contribution (the expensive one-time cost). Idempotent.
  void prime();

  /// Primes from an externally restored baseline instead of enumerating:
  /// `baseline` must hold, in sources() order, exactly what prime()'s
  /// enumeration would produce (e.g. deserialized from a snapshot's
  /// primed-baseline sections). The contribution folds still run (cheap);
  /// the per-source path enumeration - the expensive part - is skipped
  /// entirely and no sweep.prime metrics are recorded. Idempotent like
  /// prime(): a no-op on an already-primed engine.
  void prime_restored(std::vector<scenario::SourcePathSet>&& baseline);

  [[nodiscard]] const std::vector<AsId>& sources() const { return sources_; }
  /// Bumped by every rebase().
  [[nodiscard]] std::uint64_t epoch() const;

  /// Serves the GRC + MA path sets of `src` to `sink`. The spans are
  /// valid only during the call (they point into the engine's cache for
  /// sampled sources, into a local enumeration otherwise). Throws
  /// util::PreconditionError for out-of-range sources.
  using PathsSink =
      std::function<void(std::span<const diversity::Length3Path> grc,
                         std::span<const diversity::Length3Path> ma)>;
  void paths(AsId src, const PathsSink& sink) const;

  /// Per-source diversity / geodistance / fee aggregate of `src` under
  /// the current state.
  [[nodiscard]] DiversityResult diversity(AsId src) const;

  /// Folds a committed deployment step into the served state
  /// (copy-on-rebase; see the header comment). Readers are never blocked
  /// for the duration of the recompute, only for the pointer swap.
  void rebase(const scenario::Delta& step);

  /// A pinned view of the per-source baseline contributions of the
  /// current state, in sources() order. `pin` keeps the underlying state
  /// generation alive for as long as the view is held - the shard
  /// router's fold across shards reads these spans lock-free.
  struct ContributionView {
    std::shared_ptr<const void> pin;
    std::span<const scenario::SourceContribution> contribs;
  };
  [[nodiscard]] ContributionView contributions() const;

  /// The what-if seam the shard router plugs into: evaluates `delta`
  /// over this shard's source sample and returns the splice inputs -
  /// per-source baseline contributions, the dirty positions (local
  /// indices into sources()), their freshly recomputed contributions, and
  /// the sweep accounting - instead of a finalized score. The router
  /// concatenates the slices of all shards in canonical source order and
  /// runs the finalize/subtract/utility fold once, which is what keeps an
  /// N-shard response byte-identical to the 1-shard one (floating-point
  /// addition is order-sensitive; partial per-shard sums would round
  /// differently). Throws util::PreconditionError for deltas the state
  /// overlay rejects.
  struct WhatIfSlice {
    std::shared_ptr<const void> pin;
    std::span<const scenario::SourceContribution> baseline;
    std::vector<std::size_t> dirty_positions;
    std::vector<scenario::SourceContribution> fresh;
    scenario::SweepStats stats;
  };
  [[nodiscard]] WhatIfSlice whatif_slice(const scenario::Delta& delta) const;

 private:
  struct State;

  [[nodiscard]] std::shared_ptr<const State> snapshot() const;
  /// prime()/prime_restored(): builds the first state, lets `fill` load
  /// its runner cache, and publishes it. A no-op once primed.
  void install(const std::function<void(State&)>& fill);

  const topology::CompiledTopology* base_;
  scenario::MetricsAggregator aggregator_;
  std::vector<AsId> sources_;
  /// sources_[source_index_[src]] == src, for the cache fast path.
  std::unordered_map<AsId, std::size_t> source_index_;
  EngineConfig config_;

  mutable std::shared_mutex state_mutex_;
  std::shared_ptr<const State> state_;
  /// Updated together with state_ under the exclusive lock.
  std::uint64_t epoch_ = 0;
  /// Serializes writers (rebase/prime); never held while readers wait.
  std::mutex rebase_mutex_;
};

}  // namespace panagree::serve
