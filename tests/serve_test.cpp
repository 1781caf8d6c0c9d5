// Serving layer tests: wire protocol parsing/serialization, shard
// semantics (cache-served == freshly enumerated), the front end through a
// 1-shard ShardRouter (whatif == full recompute, the what-if memo and its
// bound, rebase == recompiled state, the stage clock), and the tentpole
// property - server responses byte-identical to direct library calls
// across request interleavings at 1, 2, and 8 worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/obs/build_info.hpp"
#include "panagree/obs/slowlog.hpp"
#include "panagree/obs/trace.hpp"
#include "panagree/serve/client.hpp"
#include "panagree/serve/server.hpp"
#include "panagree/serve/shard_router.hpp"
#include "panagree/serve/wire.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/json.hpp"
#include "panagree/util/rng.hpp"

namespace panagree::serve {
namespace {

using topology::AsId;

// ------------------------------------------------------------------ wire

TEST(Wire, ParsesPathsRequest) {
  const Request request =
      parse_request(R"({"v":1,"id":7,"kind":"paths","source":42})");
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.kind, RequestKind::kPaths);
  EXPECT_EQ(request.source, 42u);
}

TEST(Wire, ParsesWhatIfRequest) {
  const Request request = parse_request(
      R"({"v":1,"id":9,"kind":"whatif",)"
      R"("add":[{"a":1,"b":2,"type":"peering"},)"
      R"({"a":3,"b":4,"type":"transit"}],"remove":[[5,6]]})");
  EXPECT_EQ(request.kind, RequestKind::kWhatIf);
  ASSERT_EQ(request.delta.add.size(), 2u);
  EXPECT_EQ(request.delta.add[0].a, 1u);
  EXPECT_EQ(request.delta.add[0].type, topology::LinkType::kPeering);
  EXPECT_EQ(request.delta.add[1].type,
            topology::LinkType::kProviderCustomer);
  ASSERT_EQ(request.delta.remove.size(), 1u);
  EXPECT_EQ(request.delta.remove[0], (std::pair<AsId, AsId>{5, 6}));
}

TEST(Wire, TolerantOfWhitespaceAndTrailingNewline) {
  const Request request = parse_request(
      "  {\"v\": 1, \"id\": 3, \"kind\": \"diversity\", \"source\": 0}\r\n");
  EXPECT_EQ(request.kind, RequestKind::kDiversity);
}

TEST(Wire, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("{}"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":2,"id":1,"kind":"paths","source":0})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"nope"})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"paths"})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"whatif"})"),
               ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"v":1,"id":1,"kind":"paths","source":-3})"),
      ProtocolError);
}

TEST(Wire, ErrorIdRecoveredFromFailedRequests) {
  std::uint64_t id = 0;
  EXPECT_THROW(parse_request(R"({"v":1,"id":77,"kind":"nope"})", &id),
               ProtocolError);
  EXPECT_EQ(id, 77u);
}

TEST(Wire, ResponsesAreSingleTerminatedLines) {
  std::string out;
  append_error_response(out, 5, "bad \"quote\"\n");
  EXPECT_EQ(out,
            "{\"v\":1,\"id\":5,\"ok\":false,"
            "\"error\":\"bad \\\"quote\\\"\\n\"}\n");
}

TEST(Wire, ParsesStatsRequest) {
  const Request request =
      parse_request(R"({"v":1,"id":11,"kind":"stats"})");
  EXPECT_EQ(request.id, 11u);
  EXPECT_EQ(request.kind, RequestKind::kStats);
}

TEST(Wire, StatsResponseIsByteStableAndRoundTrips) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"a.counter", 3});
  snap.counters.push_back({"b.counter", 0});
  snap.gauges.push_back({"a.gauge", -12});
  obs::HistogramSample hist;
  hist.name = "a.hist";
  hist.count = 4;
  hist.sum = 90;
  hist.buckets = {{1, 1}, {5, 3}};
  snap.histograms.push_back(hist);

  std::string out;
  append_stats_response(out, 42, "v1.2-3-gabc", 7, snap);
  // The exposition is a byte-stable contract: fixed field order, names
  // sorted, integers via to_chars - scrapes diff cleanly across runs.
  EXPECT_EQ(out,
            "{\"v\":1,\"id\":42,\"ok\":true,\"kind\":\"stats\","
            "\"build\":\"v1.2-3-gabc\",\"epoch\":7,"
            "\"counters\":{\"a.counter\":3,\"b.counter\":0},"
            "\"gauges\":{\"a.gauge\":-12},"
            "\"histograms\":{\"a.hist\":{\"count\":4,\"sum\":90,"
            "\"buckets\":[[1,1],[5,3]]}}}\n");

  const StatsResult parsed = parse_stats_response(out);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.build, "v1.2-3-gabc");
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_EQ(parsed.metrics, snap);

  // Round-trip byte-stability: re-serializing the parsed snapshot
  // reproduces the original line exactly.
  std::string again;
  append_stats_response(again, 42, parsed.build, parsed.epoch,
                        parsed.metrics);
  EXPECT_EQ(again, out);
}

TEST(Wire, ParsesSlowlogRequest) {
  const Request request =
      parse_request(R"({"v":1,"id":13,"kind":"slowlog"})");
  EXPECT_EQ(request.id, 13u);
  EXPECT_EQ(request.kind, RequestKind::kSlowLog);
}

TEST(Wire, SlowKindNamesRoundTrip) {
  for (const std::uint64_t code : {0u, 1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(slow_kind_code(slow_kind_name(code)), code);
  }
  EXPECT_EQ(slow_kind_name(static_cast<std::uint64_t>(RequestKind::kPaths)),
            "paths");
  EXPECT_EQ(slow_kind_name(kSlowKindError), "error");
  // Out-of-range codes clamp instead of reading past the name table.
  EXPECT_EQ(slow_kind_name(kSlowKindUnknown), "unknown");
  EXPECT_EQ(slow_kind_name(999), "unknown");
  EXPECT_THROW((void)slow_kind_code("nope"), ProtocolError);
}

TEST(Wire, SlowlogResponseIsByteStableAndRoundTrips) {
  obs::SlowQueryRecord first;
  first.wire_id = 9;
  first.kind = static_cast<std::uint64_t>(RequestKind::kWhatIf);
  first.source = 0;
  first.delta_links = 2;
  first.wall_ns = 500;
  first.queue_ns = 50;
  first.parse_ns = 100;
  first.engine_ns = 200;
  first.serialize_ns = 100;
  first.send_ns = 50;
  obs::SlowQueryRecord second;
  second.wire_id = 4;
  second.kind = static_cast<std::uint64_t>(RequestKind::kPaths);
  second.source = 17;
  second.wall_ns = 300;
  second.queue_ns = 0;
  second.parse_ns = 60;
  second.engine_ns = 180;
  second.serialize_ns = 40;
  second.send_ns = 20;
  const std::vector<obs::SlowQueryRecord> entries{first, second};

  std::string out;
  append_slowlog_response(out, 33, 250, entries);
  // Byte-stable contract: fixed field order, integers via to_chars.
  EXPECT_EQ(
      out,
      "{\"v\":1,\"id\":33,\"ok\":true,\"kind\":\"slowlog\","
      "\"threshold_ns\":250,\"entries\":["
      "{\"wire_id\":9,\"kind\":\"whatif\",\"source\":0,\"delta_links\":2,"
      "\"wall_ns\":500,\"queue_ns\":50,\"parse_ns\":100,\"engine_ns\":200,"
      "\"serialize_ns\":100,\"send_ns\":50},"
      "{\"wire_id\":4,\"kind\":\"paths\",\"source\":17,\"delta_links\":0,"
      "\"wall_ns\":300,\"queue_ns\":0,\"parse_ns\":60,\"engine_ns\":180,"
      "\"serialize_ns\":40,\"send_ns\":20}]}\n");

  const SlowLogResult parsed = parse_slowlog_response(out);
  EXPECT_EQ(parsed.id, 33u);
  EXPECT_EQ(parsed.threshold_ns, 250u);
  EXPECT_EQ(parsed.entries, entries);

  // Round-trip byte-stability: re-serializing the parsed entries
  // reproduces the original line exactly.
  std::string again;
  append_slowlog_response(again, parsed.id, parsed.threshold_ns,
                          parsed.entries);
  EXPECT_EQ(again, out);
}

TEST(Wire, SlowlogResponseParserRejectsGarbage) {
  EXPECT_THROW(parse_slowlog_response("not json"), ProtocolError);
  EXPECT_THROW(
      parse_slowlog_response(
          R"({"v":1,"id":1,"ok":true,"kind":"stats","entries":[]})"),
      ProtocolError);
  EXPECT_THROW(parse_slowlog_response(
                   R"({"v":1,"id":1,"ok":false,"error":"boom"})"),
               ProtocolError);
}

TEST(Wire, StatsResponseParserRejectsGarbage) {
  EXPECT_THROW(parse_stats_response("not json"), ProtocolError);
  EXPECT_THROW(
      parse_stats_response(
          R"({"v":1,"id":1,"ok":true,"kind":"paths","epoch":0})"),
      ProtocolError);
  EXPECT_THROW(parse_stats_response(
                   R"({"v":1,"id":1,"ok":false,"error":"boom"})"),
               ProtocolError);
}

// ----------------------------------------------------------- query engine

/// One serving stack: a primed engine shard over the whole sample behind
/// a 1-shard router, the front end every request line goes through.
struct Stack {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<ShardRouter> router;
};

/// Shared fixture: a small synthetic Internet, its economy, and a 40-source
/// sample to prime engines over. Expensive, so built once.
class ServeFixture {
 public:
  ServeFixture() {
    topology::GeneratorParams params;
    params.num_ases = 250;
    params.tier1_count = 5;
    params.seed = 20260801;
    topo_ = topology::generate_internet(params);
    compiled_.emplace(topo_.graph);
    economy_.emplace(econ::make_default_economy(topo_.graph));
    sources_ = diversity::sample_sources(topo_.graph, 40, 7);
    aggregator_.emplace(*compiled_, &topo_.world, &*economy_);
  }

  [[nodiscard]] std::unique_ptr<QueryEngine> make_engine() const {
    auto engine = std::make_unique<QueryEngine>(*compiled_, &topo_.world,
                                                &*economy_, sources_);
    engine->prime();
    return engine;
  }

  [[nodiscard]] Stack make_stack(RouterConfig config = {}) const {
    Stack stack;
    stack.engine = make_engine();
    stack.router = std::make_unique<ShardRouter>(
        std::vector<QueryEngine*>{stack.engine.get()}, config);
    stack.router->refresh_baseline();
    return stack;
  }

  [[nodiscard]] std::vector<scenario::Delta> candidates(
      std::size_t count) const {
    return scenario::candidate_peering_deltas(*compiled_, count, 4242);
  }

  topology::GeneratedTopology topo_;
  std::optional<topology::CompiledTopology> compiled_;
  std::optional<econ::Economy> economy_;
  std::vector<AsId> sources_;
  std::optional<scenario::MetricsAggregator> aggregator_;
};

const ServeFixture& fixture() {
  static const ServeFixture fixture;
  return fixture;
}

scenario::SourcePathSet direct_enumeration(const ServeFixture& f, AsId src) {
  const scenario::Overlay base(*f.compiled_);
  return scenario::enumerate_length3(base, src);
}

TEST(QueryEngine, CachedAndColdPathsMatchDirectEnumeration) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  // One sampled (cache-served) and one unsampled (cold) source.
  std::vector<AsId> probes{f.sources_.front()};
  for (AsId as = 0; as < f.topo_.graph.num_ases(); ++as) {
    if (std::find(f.sources_.begin(), f.sources_.end(), as) ==
        f.sources_.end()) {
      probes.push_back(as);
      break;
    }
  }
  for (const AsId src : probes) {
    const scenario::SourcePathSet expected = direct_enumeration(f, src);
    bool visited = false;
    engine->paths(src, [&](std::span<const diversity::Length3Path> grc,
                           std::span<const diversity::Length3Path> ma) {
      visited = true;
      ASSERT_TRUE(std::ranges::equal(grc, expected.grc()));
      ASSERT_TRUE(std::ranges::equal(ma, expected.ma()));
    });
    EXPECT_TRUE(visited);
  }
  EXPECT_THROW(
      engine->paths(static_cast<AsId>(f.topo_.graph.num_ases()),
                    [](auto, auto) {}),
      util::PreconditionError);
}

TEST(QueryEngine, DiversityMatchesAggregatorContribution) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const AsId src = f.sources_[3];
  const scenario::Overlay base(*f.compiled_);
  const scenario::SourceContribution expected =
      f.aggregator_->contribution(base, direct_enumeration(f, src));
  const DiversityResult result = engine->diversity(src);
  EXPECT_EQ(result.grc_paths, expected.grc_paths);
  EXPECT_EQ(result.ma_paths, expected.ma_paths);
  EXPECT_EQ(result.grc_pairs, expected.grc_pairs);
  EXPECT_EQ(result.ma_extra_pairs, expected.ma_extra_pairs);
  EXPECT_DOUBLE_EQ(
      result.mean_best_geodistance_km,
      expected.km_pairs > 0
          ? expected.km_sum / static_cast<double>(expected.km_pairs)
          : 0.0);
  EXPECT_DOUBLE_EQ(result.transit_fees, expected.transit_fees);
}

/// The whatif score recomputed the slow way: a fresh runner primed from
/// scratch, full evaluate over the delta, aggregate, subtract.
WhatIfResult full_recompute_whatif(const ServeFixture& f,
                                   const scenario::Delta& delta) {
  scenario::SweepConfig config;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(*f.compiled_,
                                                        f.sources_, config);
  const auto enumerate = [](const scenario::Overlay& overlay, AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  runner.prime(enumerate);
  const scenario::Overlay base(*f.compiled_);
  const scenario::ScenarioMetrics baseline =
      f.aggregator_->aggregate(base, f.sources_, runner.baseline());
  scenario::Overlay overlay(*f.compiled_);
  overlay.apply(delta);
  scenario::SweepStats stats;
  const std::vector<const scenario::SourcePathSet*> results =
      runner.evaluate_refs(delta, enumerate, &stats);
  const scenario::ScenarioMetrics metrics =
      f.aggregator_->aggregate(overlay, f.sources_, results);
  const scenario::MetricsDelta marginal =
      scenario::subtract(metrics, baseline);
  WhatIfResult expected;
  expected.paths_delta = marginal.paths;
  expected.pairs_delta = marginal.pairs;
  expected.mean_km_delta = marginal.mean_best_geodistance_km;
  expected.fees_delta = marginal.transit_fees;
  expected.utility = scenario::operator_utility(marginal);
  expected.recomputed_sources = stats.recomputed_sources;
  expected.cached_sources = stats.cached_sources;
  expected.ball_size = stats.ball_size;
  return expected;
}

TEST(QueryEngine, WhatIfMatchesFullRecompute) {
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  const ShardRouter& router = *stack.router;
  for (const scenario::Delta& delta : f.candidates(8)) {
    const WhatIfResult expected = full_recompute_whatif(f, delta);
    EXPECT_EQ(router.whatif(delta), expected);
    // Memoized repeat must serve identical bytes.
    EXPECT_EQ(router.whatif(delta), expected);
    router.flush_whatif_memo();
    EXPECT_EQ(router.whatif(delta), expected);
  }
}

TEST(QueryEngine, WhatIfRejectsInvalidDeltas) {
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  scenario::Delta bogus;
  bogus.remove.emplace_back(
      static_cast<AsId>(f.topo_.graph.num_ases() + 1),
      static_cast<AsId>(f.topo_.graph.num_ases() + 2));
  EXPECT_THROW((void)stack.router->whatif(bogus), util::PreconditionError);
  // And again through the memo (the stored exception is shared).
  EXPECT_THROW((void)stack.router->whatif(bogus), util::PreconditionError);
}

std::string delta_line(const char* kind, std::uint64_t id,
                       const scenario::Delta& delta) {
  const scenario::LinkChange& link = delta.add.front();
  return R"({"v":1,"id":)" + std::to_string(id) + R"(,"kind":")" + kind +
         R"(","add":[{"a":)" + std::to_string(link.a) + R"(,"b":)" +
         std::to_string(link.b) + R"(,"type":"peering"}]})";
}

/// The epoch batch's bound (RouterConfig::max_batch) decides only which
/// evaluations are shared, never the bytes: one script - repeats within
/// an epoch, a rebase, repeats after it - answers identically with the
/// memo off, capped at one entry, and effectively unbounded, while the
/// memo counters show where each request was served from.
TEST(ShardRouter, WhatIfMemoBoundChangesSharingNotBytes) {
  const ServeFixture& f = fixture();
  const std::vector<scenario::Delta> deltas = f.candidates(4);
  ASSERT_EQ(deltas.size(), 4u);
  const scenario::Delta& a = deltas[0];
  const scenario::Delta& b = deltas[1];
  const std::vector<std::string> script{
      delta_line("whatif", 1, a),         delta_line("whatif", 2, b),
      delta_line("whatif", 3, a),         delta_line("whatif", 4, b),
      delta_line("whatif", 5, deltas[2]), delta_line("whatif", 6, a),
      delta_line("rebase", 7, deltas[3]), delta_line("whatif", 8, a),
      delta_line("whatif", 9, b),         delta_line("whatif", 10, a)};

  obs::Registry& reg = obs::Registry::global();
  const obs::Counter& hits = reg.counter("engine.whatif_memo_hits");
  const obs::Counter& shared = reg.counter("engine.whatif_memo_shared");
  const obs::Counter& unshared = reg.counter("engine.whatif_unshared");
  struct Expected {
    std::size_t max_batch;
    std::uint64_t hits, shared, unshared;
  };
  // max_batch 1: only the first distinct delta of each epoch (a) is
  // memoized; b and c always compute unshared. Post-rebase, a is
  // evaluated afresh (shared, not a hit) before it hits again.
  const Expected settings[] = {{0, 0, 0, 9}, {1, 3, 2, 4}, {256, 4, 5, 0}};
  std::optional<std::string> reference;
  for (const Expected& want : settings) {
    RouterConfig config;
    config.max_batch = want.max_batch;
    const Stack stack = f.make_stack(config);
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t shared_before = shared.value();
    const std::uint64_t unshared_before = unshared.value();
    std::string out;
    for (const std::string& line : script) {
      stack.router->handle_line(line, out);
    }
    EXPECT_EQ(out.find("\"ok\":false"), std::string::npos) << out;
    if (!reference) {
      reference = out;
    }
    EXPECT_EQ(out, *reference) << "max_batch=" << want.max_batch;
    if (obs::enabled()) {
      EXPECT_EQ(hits.value() - hits_before, want.hits)
          << "max_batch=" << want.max_batch;
      EXPECT_EQ(shared.value() - shared_before, want.shared)
          << "max_batch=" << want.max_batch;
      EXPECT_EQ(unshared.value() - unshared_before, want.unshared)
          << "max_batch=" << want.max_batch;
    }
  }
}

TEST(QueryEngine, RebaseFoldsStepAndBumpsEpoch) {
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  ShardRouter& router = *stack.router;
  const std::vector<scenario::Delta> candidates = f.candidates(3);
  ASSERT_GE(candidates.size(), 2u);
  const scenario::Delta step = candidates[0];
  const scenario::Delta probe = candidates[1];

  // Expected post-rebase state: a fresh runner rebased the library way.
  scenario::SweepConfig config;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(*f.compiled_,
                                                        f.sources_, config);
  const auto enumerate = [](const scenario::Overlay& overlay, AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  runner.prime(enumerate);
  runner.rebase(step, enumerate);

  const std::uint64_t epoch_before = router.epoch();
  EXPECT_EQ(router.rebase(step), epoch_before + 1);
  EXPECT_EQ(router.epoch(), epoch_before + 1);

  // Cached paths now reflect the rebased state for every source.
  for (std::size_t i = 0; i < f.sources_.size(); ++i) {
    router.paths(f.sources_[i],
                 [&](std::span<const diversity::Length3Path> grc,
                     std::span<const diversity::Length3Path> ma) {
                   ASSERT_TRUE(std::ranges::equal(
                       grc, runner.baseline()[i].grc()));
                   ASSERT_TRUE(
                       std::ranges::equal(ma, runner.baseline()[i].ma()));
                 });
  }

  // And whatif scores measure against the rebased state.
  scenario::Overlay state_overlay(*f.compiled_);
  state_overlay.apply(runner.state());
  const scenario::ScenarioMetrics state_metrics = f.aggregator_->aggregate(
      state_overlay, f.sources_, runner.baseline());
  scenario::SweepStats stats;
  scenario::Overlay probe_overlay(*f.compiled_);
  probe_overlay.apply(scenario::compose(runner.state(), probe));
  const std::vector<const scenario::SourcePathSet*> results =
      runner.evaluate_refs(probe, enumerate, &stats);
  const scenario::MetricsDelta marginal = scenario::subtract(
      f.aggregator_->aggregate(probe_overlay, f.sources_, results),
      state_metrics);
  const WhatIfResult served = router.whatif(probe);
  EXPECT_DOUBLE_EQ(served.utility, scenario::operator_utility(marginal));
  EXPECT_EQ(served.recomputed_sources, stats.recomputed_sources);
}

TEST(QueryEngine, StatsRequestServesLiveRegistrySnapshot) {
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  ShardRouter& router = *stack.router;

  // Stats responses carry process-wide counters, so they are excluded
  // from byte-identity sessions - but one response must parse, describe
  // the router's epoch/build, and (self-counting) include the stats
  // request that produced it.
  std::string out;
  router.handle_line(R"({"v":1,"id":21,"kind":"stats"})", out);
  const StatsResult first = parse_stats_response(out);
  EXPECT_EQ(first.id, 21u);
  EXPECT_EQ(first.epoch, router.epoch());
  EXPECT_EQ(first.build, obs::build_info().git_describe);
  std::uint64_t stats_count = 0;
  for (const obs::CounterSample& counter : first.metrics.counters) {
    if (counter.name == "serve.requests.stats") {
      stats_count = counter.value;
    }
  }
  EXPECT_GE(stats_count, 1u);

  // A second scrape sees a strictly larger stats-request counter.
  out.clear();
  router.handle_line(R"({"v":1,"id":22,"kind":"stats"})", out);
  const StatsResult second = parse_stats_response(out);
  std::uint64_t stats_count_again = 0;
  for (const obs::CounterSample& counter : second.metrics.counters) {
    if (counter.name == "serve.requests.stats") {
      stats_count_again = counter.value;
    }
  }
  EXPECT_EQ(stats_count_again, stats_count + 1);
}

// ------------------------------------------------- server byte-identity

/// A deterministic mixed request script: all three kinds, cold and
/// cached sources, plus malformed lines the server must answer as
/// errors without dropping the connection.
std::vector<std::string> request_script(const ServeFixture& f,
                                        std::size_t count) {
  const std::vector<scenario::Delta> deltas = f.candidates(6);
  util::Rng rng(99);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string id = std::to_string(i + 1);
    switch (rng.uniform_index(5)) {
      case 0:
        lines.push_back(
            R"({"v":1,"id":)" + id + R"(,"kind":"paths","source":)" +
            std::to_string(
                f.sources_[rng.uniform_index(f.sources_.size())]) +
            "}");
        break;
      case 1:
        lines.push_back(
            R"({"v":1,"id":)" + id + R"(,"kind":"diversity","source":)" +
            std::to_string(rng.uniform_index(f.topo_.graph.num_ases())) +
            "}");
        break;
      case 2: {
        const scenario::LinkChange& link =
            deltas[rng.uniform_index(deltas.size())].add.front();
        lines.push_back(R"({"v":1,"id":)" + id +
                        R"(,"kind":"whatif","add":[{"a":)" +
                        std::to_string(link.a) + R"(,"b":)" +
                        std::to_string(link.b) +
                        R"(,"type":"peering"}]})");
        break;
      }
      case 3:
        // Out-of-range source: a well-formed request the engine rejects.
        lines.push_back(R"({"v":1,"id":)" + id +
                        R"(,"kind":"paths","source":999999})");
        break;
      default:
        lines.push_back(R"({"v":1,"id":)" + id + R"(,"kind":"garbage"})");
    }
  }
  return lines;
}

/// The tentpole acceptance property: responses collected over the wire
/// are byte-identical to direct ShardRouter::handle_line calls, for
/// every worker-thread count and whatever interleaving concurrent client
/// connections produce.
TEST(Server, ResponsesByteIdenticalToDirectCallsAcrossThreadCounts) {
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  const std::vector<std::string> script = request_script(f, 60);

  std::vector<std::string> expected;
  expected.reserve(script.size());
  for (const std::string& line : script) {
    std::string out;
    stack.router->handle_line(line, out);
    expected.push_back(out);
  }
  std::vector<std::string> expected_sorted = expected;
  std::sort(expected_sorted.begin(), expected_sorted.end());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ServerConfig config;
    config.worker_threads = workers;
    Server server(*stack.router, config);
    server.start();

    // Three concurrent closed-loop clients interleaving disjoint slices.
    constexpr std::size_t kClients = 3;
    std::vector<std::vector<std::string>> collected(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::ClientConnection client(server.port());
        for (std::size_t i = c; i < script.size(); i += kClients) {
          client.send_line(script[i]);
          collected[c].push_back(client.read_line());
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    // Closed-loop responses match their requests positionally.
    for (std::size_t c = 0; c < kClients; ++c) {
      std::size_t slot = 0;
      for (std::size_t i = c; i < script.size(); i += kClients) {
        EXPECT_EQ(collected[c][slot], expected[i])
            << "workers=" << workers << " request=" << script[i];
        ++slot;
      }
    }

    // One pipelined client: fire everything, then read; responses may
    // reorder across workers, so compare as sorted multisets.
    {
      serve::ClientConnection client(server.port());
      for (const std::string& line : script) {
        client.send_line(line);
      }
      std::vector<std::string> responses;
      for (std::size_t i = 0; i < script.size(); ++i) {
        responses.push_back(client.read_line());
      }
      std::sort(responses.begin(), responses.end());
      EXPECT_EQ(responses, expected_sorted) << "workers=" << workers;
    }

    server.stop();
    EXPECT_FALSE(server.running());
  }
}

TEST(Server, StopDrainsOutstandingRequests) {
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  Server server(*stack.router, {});
  server.start();

  serve::ClientConnection client(server.port());
  constexpr std::size_t kOutstanding = 16;
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    client.send_line(R"({"v":1,"id":)" + std::to_string(i + 1) +
                     R"(,"kind":"paths","source":)" +
                     std::to_string(f.sources_[i % f.sources_.size()]) +
                     "}");
  }
  // Wait until every request has reached the server (loopback delivery
  // is asynchronous), then stop: the drain must flush all responses.
  for (int spins = 0; spins < 5000; ++spins) {
    if (server.handled_requests() >= kOutstanding) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  std::size_t answered = 0;
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    const std::string response = client.read_line();
    if (response.empty()) {
      break;
    }
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
    ++answered;
  }
  EXPECT_EQ(answered, kOutstanding);
}

// ------------------------------------------------ stage clock & slowlog

TEST(QueryEngine, HandleLineFillsStageClock) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "stage clock compiles out under PANAGREE_OBS_OFF";
  }
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  ShardRouter& router = *stack.router;
  const AsId cached = f.sources_.front();
  AsId cold = 0;
  while (std::find(f.sources_.begin(), f.sources_.end(), cold) !=
         f.sources_.end()) {
    ++cold;
  }

  const auto run = [&](const std::string& line) {
    RequestStages stages;
    stages.enqueue_ns = stage_now_ns();
    std::string out;
    router.handle_line(line, out, &stages);
    if (stages.slow_kind == kSlowKindError) {
      ADD_FAILURE() << "request failed: " << line << " -> " << out;
    }
    // The stage-sum identity: attributed wall time is exactly the sum of
    // the five stages (send is the server's to fill; 0 here).
    EXPECT_EQ(stages.wall_ns(), stages.queue_ns() + stages.parse_ns +
                                    stages.engine_ns + stages.serialize_ns +
                                    stages.send_ns)
        << line;
    EXPECT_GT(stages.parse_ns, 0u) << line;
    EXPECT_EQ(stages.send_ns, 0u) << line;
    return stages;
  };

  const RequestStages cached_stages =
      run(R"({"v":1,"id":1,"kind":"paths","source":)" +
          std::to_string(cached) + "}");
  EXPECT_EQ(cached_stages.wire_id, 1u);
  EXPECT_EQ(cached_stages.slow_kind,
            static_cast<std::uint64_t>(RequestKind::kPaths));
  EXPECT_EQ(cached_stages.work, EngineWork::kCache);
  EXPECT_GT(cached_stages.serialize_ns, 0u);

  const RequestStages cold_stages =
      run(R"({"v":1,"id":2,"kind":"paths","source":)" +
          std::to_string(cold) + "}");
  EXPECT_EQ(cold_stages.work, EngineWork::kSweep);
  EXPECT_GT(cold_stages.engine_ns, 0u);

  const scenario::LinkChange link = f.candidates(1).front().add.front();
  const RequestStages whatif_stages =
      run(R"({"v":1,"id":3,"kind":"whatif","add":[{"a":)" +
          std::to_string(link.a) + R"(,"b":)" + std::to_string(link.b) +
          R"(,"type":"peering"}],"remove":[]})");
  EXPECT_EQ(whatif_stages.work, EngineWork::kSweep);
  EXPECT_EQ(whatif_stages.delta_links, 1u);
  EXPECT_GT(whatif_stages.engine_ns, 0u);

  const RequestStages stats_stages =
      run(R"({"v":1,"id":4,"kind":"stats"})");
  EXPECT_EQ(stats_stages.slow_kind,
            static_cast<std::uint64_t>(RequestKind::kStats));
  EXPECT_EQ(stats_stages.work, EngineWork::kNone);
  EXPECT_GT(stats_stages.serialize_ns, 0u);

  RequestStages error_stages;
  error_stages.enqueue_ns = stage_now_ns();
  {
    std::string out;
    router.handle_line(R"({"v":1,"id":5,"kind":"garbage"})", out,
                       &error_stages);
  }
  EXPECT_EQ(error_stages.wall_ns(),
            error_stages.queue_ns() + error_stages.parse_ns +
                error_stages.engine_ns + error_stages.serialize_ns +
                error_stages.send_ns);
  EXPECT_GT(error_stages.parse_ns, 0u);
  EXPECT_EQ(error_stages.wire_id, 5u);
  EXPECT_EQ(error_stages.slow_kind, kSlowKindError);
  EXPECT_EQ(error_stages.work, EngineWork::kNone);
  EXPECT_EQ(error_stages.engine_ns, 0u);
}

TEST(Server, SlowlogCapturesEveryRequestWithStageBreakdown) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "slowlog compiles out under PANAGREE_OBS_OFF";
  }
  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  obs::SlowQueryLog& log = obs::SlowQueryLog::global();
  log.set_threshold_ns(0);  // capture everything
  log.clear();

  // A scripted session over the wire; stop() drains and joins the
  // workers, so every request's observation (recorded after its bytes
  // hit the socket) is complete before the ring is inspected.
  {
    Server server(*stack.router, {});
    server.start();
    serve::ClientConnection client(server.port());
    client.send_line(R"({"v":1,"id":1,"kind":"paths","source":)" +
                     std::to_string(f.sources_.front()) + "}");
    (void)client.read_line();
    client.send_line(R"({"v":1,"id":2,"kind":"diversity","source":)" +
                     std::to_string(f.sources_.back()) + "}");
    (void)client.read_line();
    client.send_line(R"({"v":1,"id":3,"kind":"garbage"})");
    (void)client.read_line();
    server.stop();
  }

  const std::vector<obs::SlowQueryRecord> snap = log.snapshot();
  std::set<std::uint64_t> captured;
  for (const obs::SlowQueryRecord& rec : snap) {
    captured.insert(rec.wire_id);
    // The serve-side invariant the wire comment promises: stage ns sum
    // exactly to the recorded wall time.
    EXPECT_EQ(rec.wall_ns, rec.queue_ns + rec.parse_ns + rec.engine_ns +
                               rec.serialize_ns + rec.send_ns);
    EXPECT_GT(rec.wall_ns, 0u);
    EXPECT_GT(rec.send_ns, 0u);  // server-side send stage populated
  }
  EXPECT_TRUE(captured.contains(1));
  EXPECT_TRUE(captured.contains(2));
  EXPECT_TRUE(captured.contains(3));

  // The ring is served over the wire by the slowlog kind - and since
  // recording happens after the response bytes are sent, a slowlog
  // response never lists its own request.
  {
    Server server(*stack.router, {});
    server.start();
    serve::ClientConnection client(server.port());
    client.send_line(R"({"v":1,"id":777,"kind":"slowlog"})");
    const SlowLogResult served = parse_slowlog_response(client.read_line());
    EXPECT_EQ(served.id, 777u);
    EXPECT_EQ(served.threshold_ns, 0u);
    std::set<std::uint64_t> wire_ids;
    for (const obs::SlowQueryRecord& rec : served.entries) {
      wire_ids.insert(rec.wire_id);
    }
    EXPECT_TRUE(wire_ids.contains(1));
    EXPECT_FALSE(wire_ids.contains(777));
    // Entries arrive slowest-first (the deterministic snapshot order).
    for (std::size_t i = 1; i < served.entries.size(); ++i) {
      EXPECT_FALSE(slow_record_before(served.entries[i],
                                      served.entries[i - 1]));
    }
    server.stop();
  }
  log.set_threshold_ns(obs::kDefaultSlowThresholdNs);
  log.clear();
}

TEST(Server, TraceSpansFormARequestRootedTree) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "tracing compiles out under PANAGREE_OBS_OFF";
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "panagree_serve_span_tree.json";
  std::filesystem::remove(path);
  obs::trace_init(path.native());
  ASSERT_TRUE(obs::trace_enabled());

  const ServeFixture& f = fixture();
  const Stack stack = f.make_stack();
  {
    Server server(*stack.router, {});
    server.start();
    serve::ClientConnection client(server.port());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      client.send_line(R"({"v":1,"id":)" + std::to_string(id) +
                       R"(,"kind":"paths","source":)" +
                       std::to_string(f.sources_[id]) + "}");
      (void)client.read_line();
    }
    server.stop();  // joins workers: every span tree is recorded
  }
  obs::trace_flush();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::json::Value doc = util::json::parse(buffer.str());
  const util::json::Object& root =
      *std::get<std::unique_ptr<util::json::Object>>(doc.data);
  const util::json::Array& events =
      *std::get<std::unique_ptr<util::json::Array>>(
          root.at("traceEvents").data);

  const auto num = [](const util::json::Value& v) {
    if (const auto* u = std::get_if<std::uint64_t>(&v.data)) {
      return static_cast<double>(*u);
    }
    return std::get<double>(v.data);
  };
  std::set<std::uint64_t> root_ids;
  std::set<std::uint64_t> wire_ids;
  std::vector<std::uint64_t> stage_parents;
  for (const util::json::Value& event : events) {
    const util::json::Object& fields =
        *std::get<std::unique_ptr<util::json::Object>>(event.data);
    const std::string& name = std::get<std::string>(fields.at("name").data);
    const util::json::Object& args =
        *std::get<std::unique_ptr<util::json::Object>>(
            fields.at("args").data);
    if (name == "serve.request") {
      root_ids.insert(static_cast<std::uint64_t>(num(args.at("id"))));
      EXPECT_EQ(num(args.at("parent")), 0.0);  // requests are roots
      ASSERT_NE(args.find("wire_id"), args.end());
      wire_ids.insert(static_cast<std::uint64_t>(num(args.at("wire_id"))));
    } else if (name.rfind("serve.stage.", 0) == 0) {
      stage_parents.push_back(
          static_cast<std::uint64_t>(num(args.at("parent"))));
    }
  }
  EXPECT_EQ(root_ids.size(), 3u);
  EXPECT_EQ(wire_ids, (std::set<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(stage_parents.empty());
  // The tree property: every stage span hangs off one of the request
  // roots - no orphans, no cross-request parents.
  for (const std::uint64_t parent : stage_parents) {
    EXPECT_TRUE(root_ids.contains(parent)) << parent;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace panagree::serve
