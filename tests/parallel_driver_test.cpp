// Tests for the shared-cursor parallel source driver: every index runs
// exactly once at any thread count, nested fan-outs (the optimizer's
// candidates over the sweep's sources) return the serial result, and -
// the driver's contract - enumeration output is byte-identical at 1, 2,
// and 8 threads even on adversarially skewed workloads (one mega-degree
// source among thousands of leaves).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "panagree/paths/enumerator.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/graph.hpp"

namespace panagree::paths {
namespace {

using topology::AsId;
using topology::CompiledTopology;
using topology::Graph;

// ------------------------------------------------------------ map_indices

// The claim protocol never duplicates or drops an index: counts around
// kMinParallelSources, one past a power of two, and large enough for
// many guided chunks shrinking down to single indices.
TEST(MapIndices, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1U, 2U, 8U}) {
    for (const std::size_t count : {32U, 33U, 257U, 3000U}) {
      std::vector<std::atomic<std::uint32_t>> runs(count);
      for (auto& r : runs) {
        r.store(0, std::memory_order_relaxed);
      }
      const auto results = map_indices(count, threads, [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        return i;
      });
      ASSERT_EQ(results.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(runs[i].load(std::memory_order_relaxed), 1U)
            << "index " << i << ", count=" << count
            << ", threads=" << threads;
        ASSERT_EQ(results[i], i);
      }
    }
  }
}

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
  for (const std::size_t threads : {1U, 2U, 8U}) {
    EXPECT_EQ(map_indices(kCount, threads, skewed_work), serial)
        << "threads=" << threads;
  }
}

// The optimizer fans out over candidates (min_parallel 2) and each
// candidate's sweep fans out over its dirty sources: a fan-out inside a
// worker of another must still land every result in index order.
TEST(MapIndices, NestedFanOutReturnsSerialResult) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  const auto inner_sum = [](std::size_t outer, std::size_t threads) {
    const auto inner = map_indices(kInner, threads, [&](std::size_t i) {
      return skewed_work(outer * kInner + i + 1);
    });
    std::uint64_t sum = 0;
    for (const std::uint64_t v : inner) {
      sum = sum * 31 + v;
    }
    return sum;
  };
  std::vector<std::uint64_t> serial(kOuter);
  for (std::size_t o = 0; o < kOuter; ++o) {
    serial[o] = inner_sum(o, 1);
  }
  const auto nested = map_indices(
      kOuter, 4, [&](std::size_t o) { return inner_sum(o, 4); },
      /*min_parallel=*/2);
  EXPECT_EQ(nested, serial);
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

TEST(AffinitySummary, ReportsAllowedOfOnlineCpus) {
  const std::string summary = affinity_summary();
  EXPECT_EQ(summary.rfind("cpus=", 0), 0U) << summary;
  EXPECT_NE(summary.find('/'), std::string::npos) << summary;
}

// ----------------------------------------- skewed end-to-end enumeration

/// The adversarial shape: one mega-degree source among thousands of
/// leaves. The hub is a customer of every provider, so its length-3
/// fan-out sweeps every provider's whole customer cone while a leaf only
/// sees its own provider's cone - a per-source workload skewed by ~100x.
struct SkewedFixture {
  Graph graph;
  AsId hub = 0;

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
        graph.add_provider_customer(provider, graph.add_as());
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

  std::vector<std::vector<Path>> serial(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    serial[i] = enumerate(sources[i]);
  }
  ASSERT_GT(serial[fixture.hub].size(), 1000U);  // the skew is real

  for (const std::size_t threads : {1U, 2U, 8U}) {
    const auto parallel = map_sources(sources, threads, enumerate);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i])
          << "source " << i << ", threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace panagree::paths
