// pb trace: the traced run. Calls each layer's public functions from this
// file, on the inputs the untraced workloads use, with a span around every
// call; the spans stay in memory and are written as Chrome trace JSON at
// the end, next to a counters file and one line per replayed request.
//
//   pb trace --serve-snapshot S --sweep-snapshot P --open FILE
//            --sources N --shards K --threads T --seed X
//            --rank R --fail F --samples M --requests LINES
//            --trace-out TRACE --counters-out JSON --requests-out TSV
//
// Tour, one thread, in order (top-level span names in quotes):
//   "storage.open"          MappedSnapshot::open of FILE, three times
//   "serve.cold_start"      ServeContext, QueryEngine::prime_restored per
//                           shard, ShardRouter::refresh_baseline, then
//                           ServeContext::prime on the primed context
//                           (the restore copy; see below)
//   "paths.prime_t1"/"paths.prime_tN"
//                           SweepRunner::prime at 1 and at T threads
//   "scenario.rank"         per candidate: SweepRunner::evaluate_refs,
//                           MetricsAggregator::aggregate
//   "scenario.failures"     per candidate: scenario::failure_diversity,
//                           dynamics::converge_all
//   "serve.replay"          ShardRouter::handle_line per request line
//                           (RequestStages filled), ShardRouter::rebase
//                           per barrier line
// Every other stretch of the tour (input preparation, teardown) has a
// "bench.*" span, so uncovered time is only what the recorder cannot see.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/dynamics/convergence.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/obs/metrics.hpp"
#include "panagree/scenario/failure.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/wire.hpp"
#include "panagree/storage/snapshot.hpp"
#include "serve_common.hpp"

using namespace panagree;
using topology::AsId;

namespace perfbench {
namespace {

struct Options {
  std::string serve_snapshot;
  std::string sweep_snapshot;
  std::string open_path;
  std::size_t sources = 0;
  std::size_t shards = 1;
  std::size_t threads = 1;
  std::uint64_t seed = 0;
  std::size_t rank = 0;
  std::size_t fail = 0;
  std::size_t samples = 8;
  std::string requests;
  std::string trace_out;
  std::string counters_out;
  std::string requests_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string v = argv[i + 1];
    if (arg == "--serve-snapshot") {
      o.serve_snapshot = v;
    } else if (arg == "--sweep-snapshot") {
      o.sweep_snapshot = v;
    } else if (arg == "--open") {
      o.open_path = v;
    } else if (arg == "--sources") {
      o.sources = std::stoul(v);
    } else if (arg == "--shards") {
      o.shards = std::stoul(v);
    } else if (arg == "--threads") {
      o.threads = std::max<std::size_t>(1, std::stoul(v));
    } else if (arg == "--seed") {
      o.seed = std::stoull(v);
    } else if (arg == "--rank") {
      o.rank = std::stoul(v);
    } else if (arg == "--fail") {
      o.fail = std::stoul(v);
    } else if (arg == "--samples") {
      o.samples = std::stoul(v);
    } else if (arg == "--requests") {
      o.requests = v;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else if (arg == "--counters-out") {
      o.counters_out = v;
    } else if (arg == "--requests-out") {
      o.requests_out = v;
    } else {
      return false;
    }
  }
  return !o.serve_snapshot.empty() && !o.sweep_snapshot.empty() &&
         !o.open_path.empty() && o.sources > 0 && !o.requests.empty() &&
         !o.trace_out.empty() && !o.counters_out.empty() &&
         !o.requests_out.empty();
}

/// scenario::enumerate_length3 behind a counter: the function every
/// SweepRunner in the tour is handed, so paths-layer work is counted where
/// it happens (calls and busy time summed over worker threads).
struct CountingEnumerate {
  std::atomic<std::uint64_t>* calls;
  std::atomic<std::uint64_t>* busy_ns;
  scenario::SourcePathSet operator()(const scenario::Overlay& overlay,
                                     AsId src) const {
    const std::uint64_t start = now_ns();
    scenario::SourcePathSet set = scenario::enumerate_length3(overlay, src);
    busy_ns->fetch_add(now_ns() - start, std::memory_order_relaxed);
    calls->fetch_add(1, std::memory_order_relaxed);
    return set;
  }
};

/// The per-source path sets a primed-baseline snapshot carries, rebuilt
/// per shard the way servecfg::ServeContext restores them - the input
/// QueryEngine::prime_restored takes.
std::vector<std::vector<scenario::SourcePathSet>> restore_inputs(
    const servecfg::ServeContext& context) {
  const storage::PrimedBaselineView& baseline =
      *context.net.snapshot()->primed_baseline();
  std::vector<std::vector<scenario::SourcePathSet>> out;
  std::size_t global = 0;
  for (const auto& engine : context.engines) {
    std::vector<scenario::SourcePathSet>& results = out.emplace_back();
    for (std::size_t i = 0; i < engine->sources().size(); ++i, ++global) {
      scenario::SourcePathSet set;
      const std::size_t grc = baseline.grc_counts[global];
      const std::size_t first = baseline.path_begin[global];
      const std::size_t last = baseline.path_begin[global + 1];
      for (std::size_t p = first; p < last; ++p) {
        const diversity::Length3Path path{
            AsId{baseline.path_words[3 * p]},
            AsId{baseline.path_words[3 * p + 1]},
            AsId{baseline.path_words[3 * p + 2]}};
        if (p - first < grc) {
          set.add_grc(path);
        } else {
          set.add_ma(path);
        }
      }
      results.push_back(std::move(set));
    }
  }
  return out;
}

/// Cost of one begin/end pair on a scratch recorder, in ns.
double span_cost_ns() {
  SpanRecorder scratch;
  constexpr int kPairs = 20000;
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kPairs; ++i) {
    scratch.end(scratch.begin("calibrate"));
  }
  return static_cast<double>(now_ns() - start) / kPairs;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

int run_trace(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "pb trace: missing or unknown arguments\n";
    return 2;
  }
  SpanRecorder rec;
  std::atomic<std::uint64_t> enum_calls{0};
  std::atomic<std::uint64_t> enum_busy_ns{0};
  const CountingEnumerate enumerate{&enum_calls, &enum_busy_ns};

  for (int i = 0; i < 3; ++i) {
    const Scoped span(rec, "storage.open");
    const storage::MappedSnapshot opened =
        storage::MappedSnapshot::open(o.open_path);
  }

  // --- serve cold start -------------------------------------------------
  // The context is primed by hand first, so QueryEngine::prime_restored
  // and ShardRouter::refresh_baseline get spans of their own; the
  // ServeContext::prime call after it finds every engine primed (its
  // prime_restored calls are no-ops), so its span is the program's own
  // restore copy out of the mapping plus one more refresh.
  std::unique_ptr<servecfg::ServeContext> serving;
  {
    const Scoped cold(rec, "serve.cold_start");
    {
      const Scoped span(rec, "serve.context", cold.id());
      serving = std::make_unique<servecfg::ServeContext>(
          o.serve_snapshot.c_str(), o.sources, o.threads, 256, o.shards);
    }
    if (!serving->net.snapshot()->primed_baseline()) {
      std::cerr << "pb trace: snapshot carries no primed baseline\n";
      return 1;
    }
    std::vector<std::vector<scenario::SourcePathSet>> inputs;
    {
      const Scoped span(rec, "bench.restore_inputs", cold.id());
      inputs = restore_inputs(*serving);
    }
    for (std::size_t s = 0; s < serving->engines.size(); ++s) {
      const Scoped span(rec, "serve.prime_restored", cold.id());
      serving->engines[s]->prime_restored(std::move(inputs[s]));
    }
    {
      const Scoped span(rec, "serve.refresh_baseline", cold.id());
      serving->router.refresh_baseline();
    }
    const Scoped span(rec, "serve.prime", cold.id());
    if (!serving->prime()) {
      std::cerr << "pb trace: primed baseline does not match the sample\n";
      return 1;
    }
  }

  // --- paths: prime at 1 and at T threads --------------------------------
  std::unique_ptr<storage::MappedSnapshot> snap;
  std::unique_ptr<econ::Economy> economy;
  std::vector<AsId> sources;
  {
    const Scoped span(rec, "bench.sweep_inputs");
    snap = std::make_unique<storage::MappedSnapshot>(
        storage::MappedSnapshot::open(o.sweep_snapshot));
    economy = std::make_unique<econ::Economy>(
        econ::make_default_economy(snap->graph()));
    sources = diversity::sample_sources(snap->graph(), o.sources,
                                        benchcfg::kSampleSeed);
  }
  const topology::CompiledTopology& compiled = snap->topology();
  const auto make_runner = [&](std::size_t threads) {
    scenario::SweepConfig config;
    config.threads = threads;
    config.dirty_radius = scenario::kLength3DirtyRadius;
    return std::make_unique<scenario::SweepRunner<scenario::SourcePathSet>>(
        compiled, sources, config);
  };
  {
    auto single = make_runner(1);
    {
      const Scoped span(rec, "paths.prime_t1");
      single->prime(enumerate);
    }
    const Scoped span(rec, "bench.teardown");
    single.reset();
  }
  auto runner = make_runner(o.threads);
  {
    const Scoped span(rec, "paths.prime_tN");
    runner->prime(enumerate);
  }

  // --- scenario: rank candidates ------------------------------------------
  const scenario::MetricsAggregator aggregator(compiled, &snap->world(),
                                               economy.get());
  scenario::SweepStats totals;
  std::size_t evaluations = 0;
  {
    const Scoped rank(rec, "scenario.rank");
    std::vector<scenario::Delta> deltas;
    {
      const Scoped span(rec, "bench.candidates", rank.id());
      deltas = scenario::candidate_peering_deltas(compiled, o.rank, o.seed);
    }
    {
      const scenario::Overlay base_view(compiled);
      const Scoped span(rec, "scenario.aggregate_baseline", rank.id());
      (void)aggregator.aggregate(base_view, sources, runner->baseline());
    }
    for (const scenario::Delta& delta : deltas) {
      std::unique_ptr<scenario::Overlay> overlay;
      {
        const Scoped span(rec, "scenario.overlay", rank.id());
        overlay = std::make_unique<scenario::Overlay>(compiled);
        overlay->apply(delta);
      }
      std::vector<const scenario::SourcePathSet*> results;
      scenario::SweepStats stats;
      {
        const Scoped span(rec, "scenario.evaluate", rank.id());
        results = runner->evaluate_refs(delta, enumerate, &stats);
      }
      {
        const Scoped span(rec, "scenario.aggregate", rank.id());
        (void)aggregator.aggregate(*overlay, sources, results);
      }
      totals.recomputed_sources += stats.recomputed_sources;
      totals.cached_sources += stats.cached_sources;
      totals.ball_size += stats.ball_size;
      ++evaluations;
    }
  }

  // --- scenario + dynamics: failure ranking -------------------------------
  std::size_t rounds_total = 0;
  std::size_t converges = 0;
  {
    const Scoped fail(rec, "scenario.failures");
    scenario::FailureSets failure;
    std::vector<AsId> dests;
    std::vector<scenario::Delta> deltas;
    {
      const Scoped span(rec, "bench.failure_sets", fail.id());
      const topology::Graph& graph = snap->graph();
      std::vector<AsId> targets;
      if (graph.num_ases() > o.samples) {
        targets = diversity::sample_sources(graph, o.samples, o.seed);
      } else {
        targets.resize(graph.num_ases());
        std::iota(targets.begin(), targets.end(), AsId{0});
      }
      for (const AsId as : targets) {
        scenario::Delta delta = scenario::as_failure_delta(compiled, as);
        if (!delta.remove.empty()) {
          failure.sets.push_back(std::move(delta));
        }
      }
      dests = diversity::sample_sources(
          graph, std::min<std::size_t>(12, graph.num_ases()),
          benchcfg::kSampleSeed + 1);
      deltas = scenario::candidate_peering_deltas(compiled, o.fail, o.seed);
    }
    {
      const Scoped span(rec, "scenario.failure_diversity", fail.id());
      (void)scenario::failure_diversity(*runner, scenario::Delta{},
                                        failure.sets);
    }
    dynamics::RoutingSnapshot base_routes;
    {
      const Scoped span(rec, "dynamics.converge", fail.id());
      base_routes = dynamics::converge_all(compiled, dests, o.threads);
    }
    rounds_total += base_routes.max_rounds;
    ++converges;
    for (const scenario::Delta& delta : deltas) {
      {
        const Scoped span(rec, "scenario.failure_diversity", fail.id());
        (void)scenario::failure_diversity(*runner, delta, failure.sets);
      }
      const Scoped span(rec, "dynamics.converge", fail.id());
      scenario::Overlay overlay(compiled);
      overlay.apply(delta);
      const dynamics::RoutingSnapshot routes =
          dynamics::converge_all(overlay, dests, o.threads);
      (void)dynamics::churn(base_routes, routes);
      rounds_total += routes.max_rounds;
      ++converges;
    }
  }
  {
    const Scoped span(rec, "bench.teardown");
    runner.reset();
    snap.reset();
  }

  // --- serve: replay the request stream in process ------------------------
  std::vector<std::pair<bool, std::string>> lines;
  {
    const Scoped span(rec, "bench.read_requests");
    std::ifstream in(o.requests);
    std::string line;
    while (std::getline(in, line)) {
      if (line.size() >= 2 && (line[0] == 'R' || line[0] == 'B')) {
        lines.emplace_back(line[0] == 'B', line.substr(2));
      }
    }
  }
  const std::uint64_t memo_hits_before =
      counter_value("engine.whatif_memo_hits");
  std::ofstream req_out(o.requests_out);
  {
    const Scoped replay(rec, "serve.replay");
    std::string out;
    for (const auto& [barrier, line] : lines) {
      if (barrier) {
        const serve::Request request = serve::parse_request(line);
        const Scoped span(rec, "serve.rebase", replay.id());
        serving->router.rebase(request.delta);
        continue;
      }
      out.clear();
      serve::RequestStages st;
      const std::uint64_t start = now_ns();
      serving->router.handle_line(line, out, &st);
      const std::uint64_t end = now_ns();
      const std::uint64_t root =
          rec.record("serve.request", start, end, replay.id(), st.wire_id);
      std::uint64_t at = std::max(start, st.start_ns);
      rec.record("serve.parse", at, at + st.parse_ns, root, st.wire_id);
      at += st.parse_ns;
      rec.record("serve.engine", at, at + st.engine_ns, root, st.wire_id);
      at += st.engine_ns;
      rec.record("serve.serialize", at, at + st.serialize_ns, root,
                 st.wire_id);
      req_out << serve::slow_kind_name(st.slow_kind) << '\t' << st.parse_ns
              << '\t' << st.engine_ns << '\t' << st.serialize_ns << '\t'
              << out.size() << '\t'
              << (st.work == serve::EngineWork::kCache ? "cache" : "sweep")
              << '\t' << (response_ok(out) ? "ok" : "error") << '\t'
              << st.wire_id << '\t' << response_digest(out) << '\n';
    }
  }
  const std::uint64_t memo_hits =
      counter_value("engine.whatif_memo_hits") - memo_hits_before;
  {
    const Scoped span(rec, "bench.teardown");
    serving.reset();
  }
  const std::uint64_t tour_end = now_ns();

  std::ofstream counters(o.counters_out);
  counters << "{\"threads\":" << o.threads
           << ",\"wall_ms\":"
           << static_cast<double>(tour_end - rec.origin_ns()) / 1e6
           << ",\"enumerations\":" << enum_calls.load()
           << ",\"enumerate_busy_ms\":"
           << static_cast<double>(enum_busy_ns.load()) / 1e6
           << ",\"evaluations\":" << evaluations
           << ",\"ball_size_total\":" << totals.ball_size
           << ",\"recomputed_sources\":" << totals.recomputed_sources
           << ",\"cached_sources\":" << totals.cached_sources
           << ",\"converges\":" << converges
           << ",\"rounds_total\":" << rounds_total
           << ",\"whatif_memo_hits\":" << memo_hits
           << ",\"span_cost_ns\":" << span_cost_ns()
           << ",\"spans\":" << rec.spans().size() << "}\n";
  if (!rec.write_chrome(o.trace_out) || !counters || !req_out) {
    std::cerr << "pb trace: cannot write outputs\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
