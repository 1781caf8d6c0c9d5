// Tests for the unified path-enumeration engine: equivalence against
// straightforward reference implementations over Graph, and determinism of
// the parallel source driver for every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>

#include "panagree/bgp/analysis.hpp"
#include "panagree/bgp/policy.hpp"
#include "panagree/diversity/length3.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/pan/beaconing.hpp"
#include "panagree/pan/path_construction.hpp"
#include "panagree/paths/enumerator.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/topology/examples.hpp"
#include "panagree/topology/generator.hpp"

namespace panagree::paths {
namespace {

using topology::AsId;
using topology::Graph;
using topology::NeighborRole;

// ----------------------------------------------------- reference walkers

/// The pre-engine valley-free DFS, kept verbatim as a reference oracle:
/// per-hop Graph::neighbors() allocation and role_of() hash lookups.
std::vector<Path> reference_valley_free(const Graph& graph, AsId src,
                                        AsId dst, std::size_t max_len) {
  enum class Phase { kClimbing, kDescending };
  std::vector<Path> out;
  if (src == dst) {
    out.push_back({src});
    return out;
  }
  std::vector<bool> on_path(graph.num_ases(), false);
  Path path{src};
  on_path[src] = true;
  const std::function<void(AsId, Phase)> dfs = [&](AsId cur, Phase phase) {
    if (path.size() >= max_len) {
      return;
    }
    for (const AsId next : graph.neighbors(cur)) {
      if (on_path[next]) {
        continue;
      }
      const auto role = *graph.role_of(cur, next);
      Phase next_phase = phase;
      if (role == NeighborRole::kProvider || role == NeighborRole::kPeer) {
        if (phase != Phase::kClimbing) {
          continue;
        }
        next_phase = role == NeighborRole::kPeer ? Phase::kDescending
                                                 : Phase::kClimbing;
      } else {
        next_phase = Phase::kDescending;
      }
      path.push_back(next);
      if (next == dst) {
        out.push_back(path);
      } else {
        on_path[next] = true;
        dfs(next, next_phase);
        on_path[next] = false;
      }
      path.pop_back();
    }
  };
  dfs(src, Phase::kClimbing);
  return out;
}

using MidDst = std::pair<AsId, AsId>;

/// The pre-engine direct/indirect MA enumeration, kept as an oracle.
std::set<MidDst> reference_ma_pairs(const Graph& graph, AsId src,
                                    bool include_indirect) {
  std::set<MidDst> out;
  const auto excluded = [&](AsId z) {
    return z == src || graph.role_of(src, z) == NeighborRole::kCustomer;
  };
  for (const AsId p : graph.peers(src)) {
    for (const AsId z : graph.providers(p)) {
      if (!excluded(z)) {
        out.insert({p, z});
      }
    }
    for (const AsId z : graph.peers(p)) {
      if (!excluded(z)) {
        out.insert({p, z});
      }
    }
  }
  if (!include_indirect) {
    return out;
  }
  const auto add_indirect = [&](AsId p) {
    for (const AsId q : graph.peers(p)) {
      if (q == src) {
        continue;
      }
      if (graph.role_of(q, src) == NeighborRole::kCustomer) {
        continue;
      }
      out.insert({p, q});
    }
  };
  for (const AsId p : graph.customers(src)) {
    add_indirect(p);
  }
  for (const AsId p : graph.peers(src)) {
    add_indirect(p);
  }
  return out;
}

std::set<Path> as_set(const std::vector<Path>& paths) {
  return {paths.begin(), paths.end()};
}

// ------------------------------------------------- valley-free walk core

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, ValleyFreeWalkMatchesReference) {
  topology::GeneratorParams params;
  params.num_ases = 250;
  params.tier1_count = 4;
  params.seed = GetParam();
  const auto topo = topology::generate_internet(params);
  const topology::CompiledTopology compiled(topo.graph);
  const PathEnumerator enumerator(compiled);
  for (AsId src = 0; src < 12; ++src) {
    for (AsId dst = 30; dst < 36; ++dst) {
      const auto expected =
          as_set(reference_valley_free(topo.graph, src, dst, 5));
      const auto got = as_set(
          enumerator.paths_between(src, dst, 5, ValleyFreeStep{}));
      EXPECT_EQ(got, expected) << "src=" << src << " dst=" << dst;
    }
  }
}

TEST_P(EngineEquivalence, MaPoliciesMatchReference) {
  topology::GeneratorParams params;
  params.num_ases = 350;
  params.tier1_count = 4;
  params.seed = GetParam() + 100;
  const auto topo = topology::generate_internet(params);
  const diversity::Length3Analyzer analyzer(topo.graph);
  for (AsId src = 0; src < 60; ++src) {
    for (const bool indirect : {false, true}) {
      const auto expected = reference_ma_pairs(topo.graph, src, indirect);
      std::set<MidDst> got;
      const auto paths = indirect ? analyzer.ma_paths(src)
                                  : analyzer.ma_direct_paths(src);
      for (const auto& p : paths) {
        EXPECT_TRUE(got.insert({p.mid, p.dst}).second)
            << "duplicate (mid,dst) emitted";
      }
      EXPECT_EQ(got, expected) << "src=" << src << " indirect=" << indirect;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence, ::testing::Values(1, 2, 9));

TEST(Engine, Fig1ValleyFreePathsHtoI) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  const PathEnumerator enumerator(compiled);
  const auto got =
      as_set(enumerator.paths_between(t.H, t.I, 6, ValleyFreeStep{}));
  const std::set<Path> expected{{t.H, t.D, t.E, t.I},
                                {t.H, t.D, t.A, t.B, t.E, t.I}};
  EXPECT_EQ(got, expected);
}

TEST(Engine, IsValleyFreeAgreesWithBgpLayer) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  for (const Path& p :
       {Path{t.H, t.D, t.A}, Path{t.D, t.E, t.B}, Path{t.A, t.D, t.E},
        Path{t.H}, Path{}, Path{t.H, t.I}}) {
    EXPECT_EQ(is_valley_free(compiled, p), bgp::is_valley_free(t.graph, p));
  }
}

TEST(Engine, MutualTransitStepReclimbsOnlyAcrossAgreement) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  const PathEnumerator enumerator(compiled);
  // Without the agreement, D cannot reach A via E (peer then provider).
  const auto plain =
      as_set(enumerator.paths_between(t.D, t.B, 6, ValleyFreeStep{}));
  EXPECT_FALSE(plain.contains(Path{t.D, t.E, t.B}));
  const MutualTransitStep mutual({{t.D, t.E}});
  const auto extended = as_set(enumerator.paths_between(t.D, t.B, 6, mutual));
  EXPECT_TRUE(extended.contains(Path{t.D, t.E, t.B}));
  // The plain valley-free set is a subset of the extended one.
  for (const Path& p : plain) {
    EXPECT_TRUE(extended.contains(p));
  }
}

// -------------------------------------------------------- parallel driver

TEST(MapSources, PreservesSourceOrder) {
  std::vector<AsId> sources;
  for (AsId as = 0; as < 300; ++as) {
    sources.push_back(as);
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto results = map_sources(sources, threads, [](AsId as) {
      return static_cast<std::size_t>(as) * 3 + 1;
    });
    ASSERT_EQ(results.size(), sources.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * 3 + 1);
    }
  }
}

TEST(MapSources, PropagatesExceptions) {
  // Enough sources to clear the small-workload serial cutoff, so the
  // worker-pool rethrow path is the one under test.
  std::vector<AsId> sources(2 * kMinParallelSources);
  for (AsId as = 0; as < sources.size(); ++as) {
    sources[as] = as;
  }
  EXPECT_THROW(
      (void)map_sources(sources, 4,
                        [](AsId as) -> int {
                          if (as == 35) {
                            throw util::PreconditionError("boom");
                          }
                          return 0;
                        }),
      util::PreconditionError);
}

TEST(MapSources, SmallWorkloadsRunSeriallyButIdentically) {
  const std::vector<AsId> sources{3, 1, 4, 1, 5};  // below the cutoff
  const auto results =
      map_sources(sources, 8, [](AsId as) { return static_cast<int>(as); });
  EXPECT_EQ(results, (std::vector<int>{3, 1, 4, 1, 5}));
}

TEST(MapSources, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_LE(resolve_thread_count(0), kMaxThreads);
  EXPECT_EQ(resolve_thread_count(kMaxThreads), kMaxThreads);
  // Refused before any thread starts, also through the driver.
  EXPECT_THROW((void)resolve_thread_count(257), util::PreconditionError);
  EXPECT_THROW((void)map_sources({1, 2}, 257, [](AsId as) { return as; }),
               util::PreconditionError);
}

// Determinism: the parallel enumerator yields byte-identical results to the
// serial path for every thread count in {1, 2, 8}.

TEST(Determinism, GaoRexfordSppIdenticalForEveryThreadCount) {
  topology::GeneratorParams params;
  params.num_ases = 120;
  params.tier1_count = 4;
  params.seed = 77;
  const auto topo = topology::generate_internet(params);
  const AsId dest = 60;
  const auto serial = bgp::make_gao_rexford_spp(
      topo.graph, dest, {.max_path_length = 5, .threads = 1});
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = bgp::make_gao_rexford_spp(
        topo.graph, dest, {.max_path_length = 5, .threads = threads});
    for (AsId node = 0; node < topo.graph.num_ases(); ++node) {
      EXPECT_EQ(parallel.permitted(node), serial.permitted(node))
          << "node " << node << " threads " << threads;
    }
  }
}

TEST(Determinism, DiversityReportIdenticalForEveryThreadCount) {
  topology::GeneratorParams params;
  params.num_ases = 500;
  params.tier1_count = 5;
  params.seed = 13;
  const auto topo = topology::generate_internet(params);
  diversity::DiversityParams dp;
  dp.sample_sources = 80;
  dp.threads = 1;
  const auto serial = diversity::analyze_path_diversity(topo.graph, dp);
  for (const std::size_t threads : {2u, 8u}) {
    dp.threads = threads;
    const auto parallel = diversity::analyze_path_diversity(topo.graph, dp);
    ASSERT_EQ(parallel.path_rows.size(), serial.path_rows.size());
    for (std::size_t i = 0; i < serial.path_rows.size(); ++i) {
      EXPECT_EQ(parallel.path_rows[i].as, serial.path_rows[i].as);
      EXPECT_EQ(parallel.path_rows[i].grc, serial.path_rows[i].grc);
      EXPECT_EQ(parallel.path_rows[i].ma_top, serial.path_rows[i].ma_top);
      EXPECT_EQ(parallel.path_rows[i].ma_star, serial.path_rows[i].ma_star);
      EXPECT_EQ(parallel.path_rows[i].ma_all, serial.path_rows[i].ma_all);
      EXPECT_EQ(parallel.dest_rows[i].grc, serial.dest_rows[i].grc);
      EXPECT_EQ(parallel.dest_rows[i].ma_top, serial.dest_rows[i].ma_top);
      EXPECT_EQ(parallel.dest_rows[i].ma_star, serial.dest_rows[i].ma_star);
      EXPECT_EQ(parallel.dest_rows[i].ma_all, serial.dest_rows[i].ma_all);
    }
    EXPECT_EQ(parallel.additional_paths.mean, serial.additional_paths.mean);
    EXPECT_EQ(parallel.additional_dests.max, serial.additional_dests.max);
  }
}

// --------------------------------------------- PAN crossing-policy walks

TEST(CrossingWalk, ConstructCandidatesAreAuthorizedWalks) {
  auto t = topology::make_fig1();
  pan::BeaconService beacons(t.graph);
  beacons.run();
  const pan::PathConstructor constructor(t.graph, beacons);
  pan::CrossingRegistry crossings;
  crossings.add(pan::Crossing{t.E, t.D, t.B, {t.D, t.H}});
  const pan::CrossingRegistry* registries[] = {nullptr, &crossings};
  for (const pan::CrossingRegistry* reg : registries) {
    for (const AsId dst : {t.I, t.B}) {
      const auto candidates = constructor.construct(t.H, dst, reg);
      // Default bound = the constructor's max_path_length, so the superset
      // guarantee holds for every candidate construct() can emit.
      const auto exhaustive = constructor.enumerate_authorized(t.H, dst, reg);
      const auto universe = as_set(exhaustive);
      for (const auto& path : candidates) {
        EXPECT_TRUE(universe.contains(path))
            << "candidate not an authorized walk";
      }
    }
  }
}

TEST(CrossingWalk, CrossingUnlocksGrcViolatingPath) {
  auto t = topology::make_fig1();
  pan::BeaconService beacons(t.graph);
  beacons.run();
  const pan::PathConstructor constructor(t.graph, beacons);
  const Path hdeb{t.H, t.D, t.E, t.B};
  EXPECT_FALSE(
      as_set(constructor.enumerate_authorized(t.H, t.B, nullptr, 6))
          .contains(hdeb));
  pan::CrossingRegistry crossings;
  crossings.add(pan::Crossing{t.E, t.D, t.B, {t.D, t.H}});
  EXPECT_TRUE(
      as_set(constructor.enumerate_authorized(t.H, t.B, &crossings, 6))
          .contains(hdeb));
  // Source restriction: a registry scoped to D only does not admit H.
  pan::CrossingRegistry only_d;
  only_d.add(pan::Crossing{t.E, t.D, t.B, {t.D}});
  EXPECT_FALSE(
      as_set(constructor.enumerate_authorized(t.H, t.B, &only_d, 6))
          .contains(hdeb));
}

// ------------------------------------------------------------- adapters

TEST(Adapters, GraphOverloadEqualsCompiledOverload) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  EXPECT_EQ(bgp::enumerate_valley_free_paths(t.graph, t.H, t.I, 6),
            bgp::enumerate_valley_free_paths(compiled, t.H, t.I, 6));
}

}  // namespace
}  // namespace panagree::paths
