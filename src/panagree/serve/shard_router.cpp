#include "panagree/serve/shard_router.hpp"

#include <algorithm>
#include <future>
#include <string>
#include <tuple>
#include <utility>

#include "panagree/obs/build_info.hpp"
#include "panagree/obs/metrics.hpp"
#include "panagree/obs/trace.hpp"

namespace panagree::serve {

namespace {

// What-if memo metrics. The engine.* names predate sharding; dashboards
// (panagree-top) and the benchmark read them as they are.
struct RouterMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& memo_hits = reg.counter("engine.whatif_memo_hits");
  obs::Counter& memo_shared = reg.counter("engine.whatif_memo_shared");
  obs::Counter& memo_unshared = reg.counter("engine.whatif_unshared");
  obs::Histogram& batch = reg.histogram("engine.whatif_batch");
};

[[nodiscard]] RouterMetrics& router_metrics() {
  static RouterMetrics metrics;
  return metrics;
}

// Per-stage latency histograms the stage clock folds every request into
// (finish_request_observation). engine_cache/engine_sweep split the
// engine stage by which machinery served it.
struct StageMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& queue = reg.histogram("serve.stage_ns.queue");
  obs::Histogram& parse = reg.histogram("serve.stage_ns.parse");
  obs::Histogram& engine = reg.histogram("serve.stage_ns.engine");
  obs::Histogram& engine_cache =
      reg.histogram("serve.stage_ns.engine_cache");
  obs::Histogram& engine_sweep =
      reg.histogram("serve.stage_ns.engine_sweep");
  obs::Histogram& serialize = reg.histogram("serve.stage_ns.serialize");
  obs::Histogram& send = reg.histogram("serve.stage_ns.send");
  obs::Histogram& wall = reg.histogram("serve.stage_ns.wall");
};

[[nodiscard]] StageMetrics& stage_metrics() {
  static StageMetrics metrics;
  return metrics;
}

/// Per-request-kind counter + latency histogram (serve.requests.*,
/// serve.latency_ns.*).
struct RequestMetricsRef {
  obs::Counter& count;
  obs::Histogram& latency_ns;
};

[[nodiscard]] RequestMetricsRef& request_metrics(RequestKind kind) {
  obs::Registry& reg = obs::Registry::global();
  static RequestMetricsRef paths{reg.counter("serve.requests.paths"),
                                 reg.histogram("serve.latency_ns.paths")};
  static RequestMetricsRef diversity{
      reg.counter("serve.requests.diversity"),
      reg.histogram("serve.latency_ns.diversity")};
  static RequestMetricsRef whatif{reg.counter("serve.requests.whatif"),
                                  reg.histogram("serve.latency_ns.whatif")};
  static RequestMetricsRef stats{reg.counter("serve.requests.stats"),
                                 reg.histogram("serve.latency_ns.stats")};
  static RequestMetricsRef slowlog{reg.counter("serve.requests.slowlog"),
                                   reg.histogram("serve.latency_ns.slowlog")};
  static RequestMetricsRef rebase{reg.counter("serve.requests.rebase"),
                                  reg.histogram("serve.latency_ns.rebase")};
  switch (kind) {
    case RequestKind::kPaths: return paths;
    case RequestKind::kDiversity: return diversity;
    case RequestKind::kWhatIf: return whatif;
    case RequestKind::kStats: return stats;
    case RequestKind::kSlowLog: return slowlog;
    case RequestKind::kRebase: return rebase;
  }
  return paths;  // unreachable
}

[[nodiscard]] RequestMetricsRef& error_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static RequestMetricsRef errors{reg.counter("serve.requests.errors"),
                                  reg.histogram("serve.latency_ns.errors")};
  return errors;
}

/// Order-insensitive key of a delta: the memo must batch "the same dirty
/// ball" however the client listed the links. Pair direction is kept for
/// added links (provider/customer roles) and normalized for removals
/// (undirected, like Overlay).
[[nodiscard]] std::string canonical_delta_key(const scenario::Delta& delta) {
  std::vector<scenario::LinkChange> add = delta.add;
  std::sort(add.begin(), add.end(),
            [](const scenario::LinkChange& x, const scenario::LinkChange& y) {
              return std::tie(x.a, x.b, x.type) < std::tie(y.a, y.b, y.type);
            });
  std::vector<std::pair<AsId, AsId>> remove;
  remove.reserve(delta.remove.size());
  for (const auto& [x, y] : delta.remove) {
    remove.emplace_back(std::min(x, y), std::max(x, y));
  }
  std::sort(remove.begin(), remove.end());
  std::string key;
  for (const scenario::LinkChange& change : add) {
    key += '+';
    key += std::to_string(change.a);
    key += ',';
    key += std::to_string(change.b);
    key += change.type == topology::LinkType::kPeering ? 'p' : 't';
  }
  for (const auto& [x, y] : remove) {
    key += '-';
    key += std::to_string(x);
    key += ',';
    key += std::to_string(y);
  }
  return key;
}

}  // namespace

/// Per-shard observability: serve.shards carries the shard count (the
/// label panagree-top keys on), serve.shard.<i>.requests counts requests
/// that did work on shard i (fan-out kinds count on every shard), and
/// serve.shard.<i>.epoch republishes each shard's epoch so a stats
/// consumer can assert fleet coherence from outside.
struct ShardRouter::ShardObs {
  std::vector<obs::Counter*> requests;
  std::vector<obs::Gauge*> epochs;

  explicit ShardObs(std::size_t num_shards) {
    obs::Registry& reg = obs::Registry::global();
    reg.gauge("serve.shards").set(static_cast<std::int64_t>(num_shards));
    requests.reserve(num_shards);
    epochs.reserve(num_shards);
    for (std::size_t shard = 0; shard < num_shards; ++shard) {
      const std::string prefix =
          "serve.shard." + std::to_string(shard) + ".";
      requests.push_back(&reg.counter(prefix + "requests"));
      epochs.push_back(&reg.gauge(prefix + "epoch"));
    }
  }
};

ShardRouter::ShardRouter(std::vector<QueryEngine*> shards,
                         RouterConfig config)
    : shards_(std::move(shards)), config_(config) {
  util::require(!shards_.empty(), "ShardRouter: no shards");
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    for (const AsId src : shards_[shard]->sources()) {
      sources_.push_back(src);
      util::require(source_shard_.emplace(src, shard).second,
                    "ShardRouter: source sampled by two shards");
    }
  }
  obs_ = std::make_unique<ShardObs>(shards_.size());
}

ShardRouter::~ShardRouter() = default;

std::uint64_t ShardRouter::epoch() const {
  const std::shared_lock<std::shared_mutex> barrier(barrier_mutex_);
  return epoch_;
}

void ShardRouter::refresh_baseline() {
  const std::unique_lock<std::shared_mutex> barrier(barrier_mutex_);
  publish_baseline();
  primed_ = true;
}

void ShardRouter::publish_baseline() {
  // The global baseline fold, in canonical source order (shard ranges are
  // contiguous): the same += sequence compute_whatif runs over the
  // spliced slices, so subtract() compares like with like.
  scenario::SourceContribution total;
  for (QueryEngine* shard : shards_) {
    const QueryEngine::ContributionView view = shard->contributions();
    for (const scenario::SourceContribution& contribution : view.contribs) {
      total += contribution;
    }
  }
  baseline_metrics_ = scenario::finalize(total);
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    obs_->epochs[shard]->set(
        static_cast<std::int64_t>(shards_[shard]->epoch()));
  }
}

std::size_t ShardRouter::shard_of(AsId src) const {
  const auto it = source_shard_.find(src);
  return it != source_shard_.end() ? it->second : 0;
}

void ShardRouter::paths(AsId src, const QueryEngine::PathsSink& sink) const {
  const std::shared_lock<std::shared_mutex> barrier(barrier_mutex_);
  const std::size_t shard = shard_of(src);
  obs_->requests[shard]->increment();
  shards_[shard]->paths(src, sink);
}

DiversityResult ShardRouter::diversity(AsId src) const {
  const std::shared_lock<std::shared_mutex> barrier(barrier_mutex_);
  const std::size_t shard = shard_of(src);
  obs_->requests[shard]->increment();
  return shards_[shard]->diversity(src);
}

WhatIfResult ShardRouter::compute_whatif(
    const scenario::Delta& delta) const {
  // Fan the per-shard slice evaluations out concurrently (shard 0 runs on
  // the calling thread); the fold below is strictly in shard order, so
  // concurrency never reaches the floating-point sums.
  std::vector<QueryEngine::WhatIfSlice> slices(shards_.size());
  std::vector<std::future<QueryEngine::WhatIfSlice>> pending;
  pending.reserve(shards_.size() - 1);
  for (std::size_t shard = 1; shard < shards_.size(); ++shard) {
    pending.push_back(
        std::async(std::launch::async, [this, shard, &delta] {
          return shards_[shard]->whatif_slice(delta);
        }));
  }
  slices[0] = shards_[0]->whatif_slice(delta);
  for (std::size_t shard = 1; shard < shards_.size(); ++shard) {
    slices[shard] = pending[shard - 1].get();
  }

  // Splice the dirty slices into the baseline contributions in canonical
  // source order across all shards - one global fold, whatever the shard
  // count.
  scenario::SourceContribution total;
  scenario::SweepStats stats;
  // Every shard grows the same invalidation ball over the same composed
  // state; the per-source accounting is disjoint and sums.
  stats.ball_size = slices[0].stats.ball_size;
  for (const QueryEngine::WhatIfSlice& slice : slices) {
    stats.recomputed_sources += slice.stats.recomputed_sources;
    stats.cached_sources += slice.stats.cached_sources;
    std::size_t next = 0;
    for (std::size_t i = 0; i < slice.baseline.size(); ++i) {
      if (next < slice.dirty_positions.size() &&
          slice.dirty_positions[next] == i) {
        total += slice.fresh[next];
        ++next;
      } else {
        total += slice.baseline[i];
      }
    }
  }
  const scenario::ScenarioMetrics metrics = scenario::finalize(total);
  const scenario::MetricsDelta marginal =
      scenario::subtract(metrics, baseline_metrics_);

  WhatIfResult result;
  result.paths_delta = marginal.paths;
  result.pairs_delta = marginal.pairs;
  result.mean_km_delta = marginal.mean_best_geodistance_km;
  result.fees_delta = marginal.transit_fees;
  result.utility = scenario::operator_utility(marginal, config_.weights);
  result.recomputed_sources = stats.recomputed_sources;
  result.cached_sources = stats.cached_sources;
  result.ball_size = stats.ball_size;
  return result;
}

WhatIfResult ShardRouter::whatif(const scenario::Delta& delta) const {
  const std::shared_lock<std::shared_mutex> barrier(barrier_mutex_);
  util::require(primed_, "ShardRouter: refresh_baseline() first");
  for (obs::Counter* requests : obs_->requests) {
    requests->increment();
  }
  if (config_.max_batch == 0) {
    router_metrics().memo_unshared.increment();
    return compute_whatif(delta);
  }

  // The epoch batch: entries are keyed by canonical delta and valid only
  // within the epoch the barrier lock pins.
  const std::string key = canonical_delta_key(delta);
  std::shared_future<WhatIfResult> shared;
  std::promise<WhatIfResult> promise;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = memo_.find(key);
    if (it != memo_.end() && it->second.epoch == epoch_) {
      shared = it->second.future;
    } else if (it != memo_.end() || memo_.size() < config_.max_batch) {
      shared = promise.get_future().share();
      memo_[key] = MemoEntry{epoch_, shared};
      owner = true;
    }
    // else: batch full - compute unshared below.
  }
  if (!owner && shared.valid()) {
    router_metrics().memo_hits.increment();
    return shared.get();
  }
  if (!owner) {
    router_metrics().memo_unshared.increment();
    return compute_whatif(delta);
  }
  router_metrics().memo_shared.increment();
  try {
    WhatIfResult result = compute_whatif(delta);
    promise.set_value(result);
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::uint64_t ShardRouter::rebase(const scenario::Delta& step) {
  const std::unique_lock<std::shared_mutex> barrier(barrier_mutex_);
  util::require(primed_, "ShardRouter: refresh_baseline() first");
  for (obs::Counter* requests : obs_->requests) {
    requests->increment();
  }
  // The barrier is held exclusively across every per-shard rebase, the
  // baseline re-fold, and the epoch bump: no reader can run between a
  // rebased shard and a not-yet-rebased one. An invalid step throws out
  // of the first shard before any state changed (engine rebase is
  // copy-then-swap), leaving the fleet coherent on the old epoch.
  for (QueryEngine* shard : shards_) {
    shard->rebase(step);
  }
  publish_baseline();
  ++epoch_;
  flush_whatif_memo();
  return epoch_;
}

void ShardRouter::flush_whatif_memo() const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  // The memo size at flush is the realized epoch batch: how many
  // distinct deltas shared this state generation.
  router_metrics().batch.record(memo_.size());
  memo_.clear();
}

void ShardRouter::handle_line(std::string_view line, std::string& out,
                              RequestStages* stages) {
  RequestStages local;
  RequestStages& st = stages != nullptr ? *stages : local;
  st.start_ns = stage_now_ns();
  std::uint64_t id = 0;
  bool parsed = false;
  try {
    const Request request = parse_request(line, &id);
    const std::uint64_t parsed_ns = stage_now_ns();
    st.parse_ns = parsed_ns - st.start_ns;
    st.wire_id = request.id;
    st.slow_kind = static_cast<std::uint64_t>(request.kind);
    parsed = true;
    // Count the request before handling it, so a stats response
    // deterministically includes itself (the CI smoke asserts exact
    // counts for a scripted session).
    RequestMetricsRef& metrics = request_metrics(request.kind);
    metrics.count.increment();
    switch (request.kind) {
      case RequestKind::kPaths: {
        st.source = request.source;
        st.work = source_shard_.contains(request.source)
                      ? EngineWork::kCache
                      : EngineWork::kSweep;
        // Serialization happens inside the engine sink (the spans are
        // only valid during the call), so it is measured directly and
        // subtracted from the surrounding interval: engine + serialize
        // covers [parse end, response done) exactly.
        std::uint64_t serialize_ns = 0;
        paths(request.source,
              [&](std::span<const diversity::Length3Path> grc,
                  std::span<const diversity::Length3Path> ma) {
                const std::uint64_t serialize_start = stage_now_ns();
                append_paths_response(out, request.id, request.source, grc,
                                      ma);
                serialize_ns = stage_now_ns() - serialize_start;
              });
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = serialize_ns;
        st.engine_ns = done_ns - parsed_ns - serialize_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kDiversity: {
        st.source = request.source;
        st.work = source_shard_.contains(request.source)
                      ? EngineWork::kCache
                      : EngineWork::kSweep;
        const DiversityResult result = diversity(request.source);
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_diversity_response(out, request.id, request.source, result);
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = done_ns - engine_done_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kWhatIf: {
        st.delta_links =
            request.delta.add.size() + request.delta.remove.size();
        st.work = EngineWork::kSweep;
        const WhatIfResult result = whatif(request.delta);
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_whatif_response(out, request.id, result);
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = done_ns - engine_done_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kRebase: {
        st.delta_links =
            request.delta.add.size() + request.delta.remove.size();
        st.work = EngineWork::kSweep;
        const std::uint64_t new_epoch = rebase(request.delta);
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_rebase_response(out, request.id, new_epoch);
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = done_ns - engine_done_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kStats: {
        // Latency recorded before the snapshot, so the histogram's count
        // matches the counter in the response it ships.
        metrics.latency_ns.record(stage_now_ns() - st.start_ns);
        obs::refresh_process_gauges();
        const std::uint64_t current_epoch = epoch();
        const obs::MetricsSnapshot snap = obs::snapshot_metrics();
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_stats_response(out, request.id,
                              obs::build_info().git_describe,
                              current_epoch, snap);
        st.serialize_ns = stage_now_ns() - engine_done_ns;
        break;
      }
      case RequestKind::kSlowLog: {
        metrics.latency_ns.record(stage_now_ns() - st.start_ns);
        obs::SlowQueryLog& log = obs::SlowQueryLog::global();
        const std::vector<obs::SlowQueryRecord> entries = log.snapshot();
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_slowlog_response(out, request.id, log.threshold_ns(),
                                entries);
        st.serialize_ns = stage_now_ns() - engine_done_ns;
        break;
      }
    }
  } catch (const std::exception& e) {
    const std::uint64_t caught_ns = stage_now_ns();
    // Attribute the time up to the failure to the stage it died in:
    // parse failures to parse, everything later to engine.
    if (!parsed) {
      st.parse_ns = caught_ns - st.start_ns;
    } else {
      st.engine_ns = caught_ns - st.start_ns - st.parse_ns;
      st.serialize_ns = 0;
    }
    st.wire_id = id;
    st.slow_kind = kSlowKindError;
    st.work = EngineWork::kNone;
    RequestMetricsRef& errors = error_metrics();
    errors.count.increment();
    errors.latency_ns.record(caught_ns - st.start_ns);
    append_error_response(out, id, e.what());
    st.serialize_ns += stage_now_ns() - caught_ns;
  }
  if (stages == nullptr) {
    // --direct / in-process callers: no queue or send stages, finish
    // the observation here.
    finish_request_observation(st);
  }
}

void finish_request_observation(const RequestStages& st) {
  if constexpr (!obs::enabled()) {
    return;
  }
  StageMetrics& metrics = stage_metrics();
  metrics.queue.record(st.queue_ns());
  metrics.parse.record(st.parse_ns);
  metrics.engine.record(st.engine_ns);
  switch (st.work) {
    case EngineWork::kCache:
      metrics.engine_cache.record(st.engine_ns);
      break;
    case EngineWork::kSweep:
      metrics.engine_sweep.record(st.engine_ns);
      break;
    case EngineWork::kNone:
      break;
  }
  metrics.serialize.record(st.serialize_ns);
  metrics.send.record(st.send_ns);
  metrics.wall.record(st.wall_ns());

  obs::SlowQueryRecord record;
  record.wire_id = st.wire_id;
  record.kind = st.slow_kind;
  record.source = st.source;
  record.delta_links = st.delta_links;
  record.wall_ns = st.wall_ns();
  record.queue_ns = st.queue_ns();
  record.parse_ns = st.parse_ns;
  record.engine_ns = st.engine_ns;
  record.serialize_ns = st.serialize_ns;
  record.send_ns = st.send_ns;
  obs::SlowQueryLog::global().record(record);

  if (obs::trace_enabled()) {
    // The span tree: one root per request carrying the wire id, one
    // child per nonzero stage. Stage start offsets are the cumulative
    // sums of the stage durations (serialize interleaves with engine
    // inside the paths sink, so its own interval is approximated as
    // following the engine stage; durations stay exact).
    const std::uint64_t root_id = obs::trace_next_span_id();
    const std::uint64_t root_start =
        st.enqueue_ns != 0 ? st.enqueue_ns : st.start_ns;
    std::uint64_t cursor = root_start;
    const auto stage = [&](const char* name, std::uint64_t duration_ns) {
      if (duration_ns != 0) {
        obs::trace_record_span(
            name, cursor, cursor + duration_ns,
            obs::SpanArgs{obs::trace_next_span_id(), root_id, 0, false});
      }
      cursor += duration_ns;
    };
    stage("serve.stage.queue", st.queue_ns());
    stage("serve.stage.parse", st.parse_ns);
    stage("serve.stage.engine", st.engine_ns);
    stage("serve.stage.serialize", st.serialize_ns);
    stage("serve.stage.send", st.send_ns);
    obs::trace_record_span("serve.request", root_start, cursor,
                           obs::SpanArgs{root_id, 0, st.wire_id, true});
  }
}

}  // namespace panagree::serve
