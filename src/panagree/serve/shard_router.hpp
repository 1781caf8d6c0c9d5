// The serving front end: one ShardRouter owns N >= 1 QueryEngine shards,
// each primed over a contiguous range of the canonical source sample, and
// is the only path a request line takes - the server workers, the
// client's --direct mode and the benchmarks all call handle_line, which
// is what makes their bytes identical.
//
// Routing: `paths`/`diversity` go to the shard owning the source (cold -
// unsampled - sources go to shard 0; every shard serves any state-wide
// query, ownership only decides whose cache answers). `whatif` fans
// across all shards: each shard evaluates the delta over its own source
// range through QueryEngine::whatif_slice, and the router splices the
// per-source SourceContribution slices back together in canonical source
// order (scenario::splice_contributions, shard by shard) before running
// the finalize/subtract/utility fold once. The
// in-order fold is what makes an N-shard response byte-identical to the
// 1-shard one - floating-point addition is order-sensitive, so per-shard
// partial sums would round differently.
//
// Epoch coherence: the router exposes one epoch for the whole fleet. The
// admin `rebase` wire kind applies the delta to every shard under a
// single epoch barrier (a shared_mutex: readers hold it shared for the
// duration of a request, rebase holds it exclusive across the per-shard
// rebases, the baseline re-fold, and the epoch bump), so a reader can
// never observe shard A answering from the new topology while shard B
// still answers from the old one.
//
// Epoch batching: concurrent whatif requests for the same delta share one
// evaluation. The first requester installs a shared future keyed by the
// canonical delta; later requesters (same epoch) wait on it instead of
// re-walking the dirty ball. rebase() bumps the epoch and drops the memo
// - cached scores are only ever served against the state they were
// computed on. The memo is bounded (max_batch): past the cap requests
// compute unshared rather than grow memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "panagree/obs/metrics.hpp"
#include "panagree/serve/query_engine.hpp"

namespace panagree::serve {

/// The stage clock's time source: steady-clock nanoseconds when the obs
/// layer is live, constant 0 under PANAGREE_OBS_OFF - which collapses
/// every stage duration to zero and makes the whole per-request clock a
/// no-op without a single branch in the instrumented code.
[[nodiscard]] inline std::uint64_t stage_now_ns() noexcept {
  if constexpr (obs::enabled()) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  } else {
    return 0;
  }
}

/// Which engine machinery served a request's engine stage - the
/// sweep/cache sub-attribution folded into the per-stage histograms
/// (serve.stage_ns.engine_cache vs serve.stage_ns.engine_sweep).
enum class EngineWork : std::uint8_t {
  kNone,   // introspection kinds (stats, slowlog) and failed requests
  kCache,  // served out of the primed per-source cache
  kSweep,  // went through enumeration / the incremental sweep
};

/// Per-request stage clock, threaded from accept to send. handle_line
/// fills parse/engine/serialize and the request identity; the server
/// supplies enqueue_ns before the call and send_ns after, then hands the
/// record to finish_request_observation. The five stage durations sum to
/// wall_ns() by construction: serialization that happens inside an
/// engine sink (the paths response) is measured directly and subtracted
/// from the surrounding engine interval, so no nanosecond is counted
/// twice or dropped.
struct RequestStages {
  /// Server reader's enqueue timestamp (stage_now_ns clock); 0 means no
  /// queue stage (--direct calls).
  std::uint64_t enqueue_ns = 0;
  /// handle_line entry timestamp (set by handle_line).
  std::uint64_t start_ns = 0;
  std::uint64_t parse_ns = 0;
  std::uint64_t engine_ns = 0;
  std::uint64_t serialize_ns = 0;
  /// Socket write duration (set by the server after send_all; 0 for
  /// --direct).
  std::uint64_t send_ns = 0;

  std::uint64_t wire_id = 0;
  /// Wire slow-kind code (RequestKind value, or kSlowKindError).
  std::uint64_t slow_kind = 0;
  std::uint64_t source = 0;
  std::uint64_t delta_links = 0;
  EngineWork work = EngineWork::kNone;

  /// Queue wait: handle start minus enqueue (0 without a queue stage).
  [[nodiscard]] std::uint64_t queue_ns() const noexcept {
    return enqueue_ns != 0 && start_ns > enqueue_ns
               ? start_ns - enqueue_ns
               : 0;
  }

  /// Total attributed wall time: the exact sum of the five stages.
  [[nodiscard]] std::uint64_t wall_ns() const noexcept {
    return queue_ns() + parse_ns + engine_ns + serialize_ns + send_ns;
  }
};

/// Folds a completed request's stage clock into the per-stage
/// histograms (serve.stage_ns.*), offers it to the slow-query ring
/// (obs::SlowQueryLog::global()), and - when PANAGREE_TRACE is live -
/// records its span tree: one "serve.request" root span carrying the
/// wire id, one "serve.stage.*" child span per nonzero stage. Called by
/// the server worker after the response bytes are on the socket (so a
/// slowlog response never contains its own request) and by
/// ShardRouter::handle_line itself for --direct calls.
void finish_request_observation(const RequestStages& stages);

struct RouterConfig {
  /// Bound on memoized what-if evaluations per epoch (the epoch batch):
  /// concurrent identical requests share one evaluation up to this many
  /// distinct deltas; past the cap, requests compute unshared.
  std::size_t max_batch = 256;
  /// Scoring weights of whatif utilities.
  scenario::UtilityWeights weights;
};

class ShardRouter {
 public:
  /// `shards` are the owned-by-caller engines, in partition order: the
  /// concatenation of their sources() must be the canonical sample, and
  /// every source must appear in exactly one shard. The engines must
  /// outlive the router. Prime the shards (prime() or prime_restored()),
  /// then call refresh_baseline() before serving.
  ShardRouter(std::vector<QueryEngine*> shards, RouterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  /// The canonical source sample (all shards concatenated).
  [[nodiscard]] const std::vector<AsId>& sources() const { return sources_; }
  /// The fleet-wide epoch: bumped by every rebase(), never mixed.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Recomputes the router's global baseline fold from the shards'
  /// current states and publishes the per-shard epoch gauges. Call once
  /// after priming the shards; rebase() keeps it fresh afterwards.
  void refresh_baseline();

  /// Routed requests (see the header comment). All throw
  /// util::PreconditionError for out-of-range sources, unprimed shards,
  /// and deltas the state overlay rejects.
  void paths(AsId src, const QueryEngine::PathsSink& sink) const;
  [[nodiscard]] DiversityResult diversity(AsId src) const;
  [[nodiscard]] WhatIfResult whatif(const scenario::Delta& delta) const;

  /// Applies `step` to every shard under the epoch barrier and returns
  /// the new fleet epoch. Readers never observe a partial application.
  std::uint64_t rebase(const scenario::Delta& step);

  /// Drops the memoized what-if evaluations without changing state -
  /// lets benches and tests measure the unshared evaluation cost.
  void flush_whatif_memo() const;

  /// Parses one request line, dispatches it, and appends the
  /// newline-terminated response to `out`. Never throws: malformed
  /// requests and engine rejections become error responses (id 0 when
  /// the line was too broken to carry one).
  ///
  /// Stage clock: when `stages` is non-null the parse/engine/serialize
  /// durations and request identity are written into it and observation
  /// is left to the caller (the server finishes after send); when null,
  /// the request is finished here with no queue/send stages (--direct).
  void handle_line(std::string_view line, std::string& out,
                   RequestStages* stages = nullptr);

 private:
  struct ShardObs;

  [[nodiscard]] WhatIfResult compute_whatif(
      const scenario::Delta& delta) const;
  /// Re-folds the global baseline from the shards' cached contributions
  /// and republishes the per-shard epoch gauges (barrier held exclusively).
  void publish_baseline();
  /// paths/diversity routing: the owning shard of a sampled source,
  /// shard 0 for cold sources.
  [[nodiscard]] std::size_t shard_of(AsId src) const;

  std::vector<QueryEngine*> shards_;
  std::vector<AsId> sources_;
  std::unordered_map<AsId, std::size_t> source_shard_;
  RouterConfig config_;

  /// The epoch barrier: requests hold it shared, rebase exclusive.
  mutable std::shared_mutex barrier_mutex_;
  std::uint64_t epoch_ = 0;
  bool primed_ = false;
  /// finalize() of the in-order fold over all shards' baseline
  /// contributions - the subtract() reference of whatif scoring.
  scenario::ScenarioMetrics baseline_metrics_;

  struct MemoEntry {
    std::uint64_t epoch = 0;
    std::shared_future<WhatIfResult> future;
  };
  mutable std::mutex memo_mutex_;
  mutable std::unordered_map<std::string, MemoEntry> memo_;

  /// Per-shard request counters + epoch gauges (shard.<i>.*), feeding
  /// panagree-top's per-shard columns.
  std::unique_ptr<ShardObs> obs_;
};

}  // namespace panagree::serve
