// Tests for the work-stealing parallel source driver: the StealRange
// transfer protocol never duplicates or drops an index under contention,
// cost-balanced seeding partitions exactly, and - the driver's contract -
// enumeration output is byte-identical at 1, 2, and 8 threads even on
// adversarially skewed workloads (one mega-degree source among thousands
// of leaves). Placement (NUMA model, pinning) is smoke-tested as
// best-effort: it may or may not take effect, it must never change
// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "panagree/paths/enumerator.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/paths/placement.hpp"
#include "panagree/paths/steal.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/topology/graph.hpp"

// The pre-work-stealing driver, kept as a bench baseline; tested here
// against the serial result like map_indices itself.
#include "../bench/map_indices_atomic.hpp"

namespace panagree::paths {
namespace {

using topology::AsId;
using topology::CompiledTopology;
using topology::Graph;

// ------------------------------------------------------------ StealRange

TEST(StealRange, OwnerClaimsEverythingWhenUnmolested) {
  detail::StealRange range;
  range.reset(0, 1000);
  std::vector<bool> seen(1000, false);
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  while (range.try_claim(begin, end)) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end - begin, detail::StealRange::kMaxChunk);
    for (std::uint32_t i = begin; i < end; ++i) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  EXPECT_TRUE(
      std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_EQ(range.remaining(), 0U);
}

TEST(StealRange, StealTakesBackHalfAndLeavesLastIndexToOwner) {
  detail::StealRange range;
  range.reset(10, 20);
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  ASSERT_TRUE(range.try_steal(begin, end));
  EXPECT_EQ(begin, 15U);
  EXPECT_EQ(end, 20U);
  EXPECT_EQ(range.remaining(), 5U);

  detail::StealRange nearly_dry;
  nearly_dry.reset(7, 8);  // one index left: the owner's, not stealable
  EXPECT_FALSE(nearly_dry.try_steal(begin, end));
  EXPECT_TRUE(nearly_dry.try_claim(begin, end));
  EXPECT_EQ(begin, 7U);
  EXPECT_EQ(end, 8U);
}

// The core lock-freedom property: under concurrent owner claims and
// thief steals, every index is handed out exactly once.
TEST(StealRange, ConcurrentClaimAndStealNeverOverlap) {
  constexpr std::uint32_t kCount = 100000;
  for (int round = 0; round < 5; ++round) {
    detail::StealRange range;
    range.reset(0, kCount);
    std::vector<std::atomic<std::uint32_t>> hits(kCount);
    for (auto& h : hits) {
      h.store(0, std::memory_order_relaxed);
    }
    const auto owner = [&] {
      std::uint32_t b = 0;
      std::uint32_t e = 0;
      while (range.try_claim(b, e)) {
        for (std::uint32_t i = b; i < e; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    const auto thief = [&] {
      std::uint32_t b = 0;
      std::uint32_t e = 0;
      // Steal and immediately consume the stolen slice; retry until the
      // victim is too dry to rob. The range only ever shrinks, so one
      // failed steal means this thief is done for good.
      while (range.try_steal(b, e)) {
        for (std::uint32_t i = b; i < e; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> pool;
    pool.emplace_back(owner);
    for (int t = 0; t < 3; ++t) {
      pool.emplace_back(thief);
    }
    for (auto& t : pool) {
      t.join();
    }
    for (std::uint32_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1U)
          << "index " << i << " handed out " << hits[i].load() << " times";
    }
  }
}

// ------------------------------------------------------ partition_by_cost

TEST(PartitionByCost, EqualSizesWithoutCosts) {
  const auto ranges = partition_by_cost({}, 10, 3);
  ASSERT_EQ(ranges.size(), 3U);
  EXPECT_EQ(ranges[0], (std::pair<std::uint32_t, std::uint32_t>{0, 4}));
  EXPECT_EQ(ranges[1], (std::pair<std::uint32_t, std::uint32_t>{4, 7}));
  EXPECT_EQ(ranges[2], (std::pair<std::uint32_t, std::uint32_t>{7, 10}));
}

TEST(PartitionByCost, CoversSpaceExactlyInOrder) {
  std::vector<std::uint64_t> costs(137);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = (i * 7919) % 101 + 1;
  }
  for (const std::size_t workers : {1U, 2U, 5U, 8U, 137U, 200U}) {
    const auto ranges = partition_by_cost(costs, costs.size(), workers);
    ASSERT_EQ(ranges.size(), workers);
    std::uint32_t expect_begin = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, expect_begin);
      EXPECT_LE(begin, end);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, costs.size());
  }
}

TEST(PartitionByCost, DominantIndexGetsItsOwnRange) {
  // One index holding >99% of the total cost must not drag half the
  // space into its worker's seed range.
  std::vector<std::uint64_t> costs(1000, 1);
  costs[0] = 1000000;
  const auto ranges = partition_by_cost(costs, costs.size(), 4);
  ASSERT_EQ(ranges.size(), 4U);
  EXPECT_EQ(ranges[0].first, 0U);
  EXPECT_EQ(ranges[0].second, 1U);  // the mega index alone
  // The remaining workers share the 999 unit-cost indices roughly evenly.
  for (std::size_t w = 1; w < 4; ++w) {
    EXPECT_GT(ranges[w].second - ranges[w].first, 200U);
  }
}

TEST(PartitionByCost, MoreWorkersThanIndices) {
  const auto ranges = partition_by_cost({}, 2, 5);
  ASSERT_EQ(ranges.size(), 5U);
  std::size_t non_empty = 0;
  for (const auto& [begin, end] : ranges) {
    non_empty += begin < end ? 1 : 0;
  }
  EXPECT_EQ(non_empty, 2U);
  EXPECT_EQ(ranges.back().second, 2U);
}

// ------------------------------------------------------------ map_indices

/// An adversarially skewed per-index workload: index 0 costs ~10000x an
/// ordinary index. Results encode the index so any slot mixup is
/// detectable.
std::uint64_t skewed_work(std::size_t i) {
  const std::size_t spins = i == 0 ? 1000000 : 100;
  std::uint64_t acc = i;
  for (std::size_t s = 0; s < spins; ++s) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc ^ i;
}

TEST(MapIndices, ByteIdenticalAcrossThreadCountsOnSkewedWork) {
  constexpr std::size_t kCount = 3000;
  std::vector<std::uint64_t> serial(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    serial[i] = skewed_work(i);
  }
  std::vector<std::uint64_t> costs(kCount, 1);
  costs[0] = 10000;
  for (const std::size_t threads : {1U, 2U, 8U}) {
    const auto plain = map_indices(kCount, threads, skewed_work);
    EXPECT_EQ(plain, serial) << "threads=" << threads;

    MapOptions options;
    options.costs = costs;
    const auto seeded = map_indices(kCount, threads, skewed_work, options);
    EXPECT_EQ(seeded, serial) << "cost-seeded, threads=" << threads;

    const auto atomic =
        benchcfg::map_indices_atomic(kCount, threads, skewed_work);
    EXPECT_EQ(atomic, serial) << "atomic baseline, threads=" << threads;
  }
}

TEST(MapIndices, ExplicitMinParallelOverloadStillServesSmallCounts) {
  const auto fn = [](std::size_t i) { return i * 3 + 1; };
  const auto parallel = map_indices(8, 4, fn, /*min_parallel=*/2);
  const auto serial = map_indices(8, 4, fn);  // 8 < kMinParallelSources
  EXPECT_EQ(parallel, serial);
}

TEST(MapIndices, PropagatesFirstExceptionAfterDraining) {
  EXPECT_THROW((void)map_indices(5000, 8,
                                 [](std::size_t i) -> int {
                                   if (i == 4321) {
                                     throw std::runtime_error("boom");
                                   }
                                   return static_cast<int>(i);
                                 }),
               std::runtime_error);
}

TEST(MapIndices, PinnedExecutionIsByteIdentical) {
  const TopologyPlacement placement = TopologyPlacement::single_node(2);
  MapOptions options;
  options.exec.pin_threads = true;
  options.exec.placement = &placement;
  const auto pinned = map_indices(500, 4, skewed_work, options);
  const auto unpinned = map_indices(500, 4, skewed_work);
  EXPECT_EQ(pinned, unpinned);
}

// ----------------------------------------- skewed end-to-end enumeration

/// The adversarial shape from the issue: one mega-degree source among
/// thousands of leaves. The hub is a customer of every provider, so its
/// length-3 fan-out sweeps every provider's whole customer cone while a
/// leaf only sees its own provider's cone - a per-source workload (and
/// two-hop cost estimate) skewed by ~100x.
struct SkewedFixture {
  Graph graph;
  AsId hub = 0;
  AsId first_leaf = 0;

  SkewedFixture() {
    constexpr std::size_t kProviders = 100;
    constexpr std::size_t kLeavesPerProvider = 30;
    hub = graph.add_as("hub");
    std::vector<AsId> providers;
    for (std::size_t p = 0; p < kProviders; ++p) {
      const AsId provider = graph.add_as();
      graph.add_provider_customer(provider, hub);
      providers.push_back(provider);
      for (std::size_t c = 0; c < kLeavesPerProvider; ++c) {
        const AsId leaf = graph.add_as();
        graph.add_provider_customer(provider, leaf);
        if (first_leaf == 0) {
          first_leaf = leaf;
        }
      }
    }
    // A sprinkle of provider peerings so the walks take peer steps too.
    for (std::size_t p = 0; p + 1 < kProviders; p += 7) {
      graph.add_peering(providers[p], providers[p + 1]);
    }
  }
};

TEST(MapSources, SkewedEnumerationByteIdenticalAcrossThreads) {
  const SkewedFixture fixture;
  const CompiledTopology compiled(fixture.graph);

  std::vector<AsId> sources(fixture.graph.num_ases());
  std::iota(sources.begin(), sources.end(), AsId{0});

  const BasicPathEnumerator<CompiledTopology> enumerator(compiled);
  const auto enumerate = [&](AsId src) {
    std::vector<Path> out;
    enumerator.visit_paths(src, 3, ValleyFreeStep{}, [&](const Path& path) {
      out.push_back(path);
      return true;
    });
    return out;
  };

  const auto costs = two_hop_cost_estimates(compiled, sources);
  ASSERT_EQ(costs.size(), sources.size());
  // The hub's estimate must dwarf a leaf's (it sees every provider's
  // whole row; a leaf sees one).
  EXPECT_GT(costs[fixture.hub], 50 * costs[fixture.first_leaf]);

  std::vector<std::vector<Path>> serial(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    serial[i] = enumerate(sources[i]);
  }
  ASSERT_GT(serial[fixture.hub].size(), 1000U);  // the skew is real

  for (const std::size_t threads : {1U, 2U, 8U}) {
    MapOptions options;
    options.costs = costs;
    const auto parallel = map_sources(sources, threads, enumerate, options);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i])
          << "source " << i << ", threads=" << threads;
    }
    // Uniform seeds (no cost estimates) must converge to the same bytes
    // through stealing alone.
    const auto unseeded = map_sources(sources, threads, enumerate);
    ASSERT_EQ(unseeded, serial) << "unseeded, threads=" << threads;
  }
}

// ------------------------------------------------------------- placement

TEST(Placement, ParseCpuListHandlesKernelShapes) {
  EXPECT_EQ(parse_cpu_list("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpu_list("0-2,8,10-11"),
            (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("5"), (std::vector<int>{5}));
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list("garbage").empty());
  EXPECT_EQ(parse_cpu_list("1,bad"), (std::vector<int>{1}));
  EXPECT_EQ(parse_cpu_list("3,1,2-3"), (std::vector<int>{1, 2, 3}));
}

TEST(Placement, SingleNodeModel) {
  const TopologyPlacement placement = TopologyPlacement::single_node(4);
  EXPECT_EQ(placement.num_nodes(), 1U);
  EXPECT_EQ(placement.num_cpus(), 4U);
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(placement.node_of_worker(w, 8), 0U);
  }
  EXPECT_FALSE(placement.describe().empty());
}

TEST(Placement, DetectedSystemIsSane) {
  const TopologyPlacement& system = TopologyPlacement::system();
  EXPECT_GE(system.num_nodes(), 1U);
  EXPECT_GE(system.num_cpus(), 1U);
  // Workers are dealt to nodes in contiguous non-decreasing blocks,
  // mirroring the driver's contiguous seed ranges.
  std::size_t prev = 0;
  for (std::size_t w = 0; w < 16; ++w) {
    const std::size_t node = system.node_of_worker(w, 16);
    EXPECT_LT(node, system.num_nodes());
    EXPECT_GE(node, prev);
    prev = node;
  }
}

TEST(Placement, BindingIsBestEffortAndNeverThrows) {
  const TopologyPlacement& system = TopologyPlacement::system();
  // May succeed or fail depending on the host; must not crash either way.
  (void)system.bind_worker(0, 2);
  (void)system.bind_current_thread(0);
  EXPECT_FALSE(system.bind_current_thread(system.num_nodes()));  // range
  int dummy = 0;
  (void)system.bind_memory(&dummy, sizeof(dummy), 0);
  EXPECT_FALSE(system.bind_memory(nullptr, 0, 0));
  const std::string summary = affinity_summary();
  EXPECT_EQ(summary.rfind("cpus=", 0), 0U) << summary;
}

TEST(Placement, BindTopologyIsNoOpOnSingleNode) {
  const auto generated = topology::generate_internet([] {
    topology::GeneratorParams params;
    params.num_ases = 60;
    params.tier1_count = 3;
    params.seed = 5;
    return params;
  }());
  const CompiledTopology compiled(generated.graph);
  const TopologyPlacement single = TopologyPlacement::single_node(4);
  EXPECT_FALSE(bind_topology_to_nodes(single, compiled));
}

// ---------------------------------------------------- two_hop estimates

TEST(TwoHopCostEstimates, CountsDepthTwoCandidatesExactly) {
  Graph graph;
  const AsId a = graph.add_as();  // provider of b and c
  const AsId b = graph.add_as();
  const AsId c = graph.add_as();
  const AsId d = graph.add_as();  // peer of b
  graph.add_provider_customer(a, b);
  graph.add_provider_customer(a, c);
  graph.add_peering(b, d);
  const CompiledTopology compiled(graph);
  const std::vector<AsId> sources = {a, b, c, d};
  const auto costs = two_hop_cost_estimates(compiled, sources);
  ASSERT_EQ(costs.size(), 4U);
  // cost = 1 + sum of neighbor degrees: deg(a)=2, deg(b)=2, deg(c)=1,
  // deg(d)=1.
  EXPECT_EQ(costs[0], 1U + 2 + 1);  // a: neighbors b, c
  EXPECT_EQ(costs[1], 1U + 2 + 1);  // b: neighbors a, d
  EXPECT_EQ(costs[2], 1U + 2);      // c: neighbor a
  EXPECT_EQ(costs[3], 1U + 2);      // d: neighbor b
}

}  // namespace
}  // namespace panagree::paths
