// Per-source work-stealing parallel driver for path enumeration.
//
// Every large-scale analysis in this repo fans out over independent source
// ASes (SPP compilation per node, diversity counts per sampled AS, the
// optimizer's candidate scenarios). The driver runs a per-index function
// over a std::thread pool and collects results *in index order*: each
// result lands in its index's preallocated slot, so the merged output is
// byte-identical for every thread count, including 1. Parallelism never
// changes results, only wall-clock time.
//
// Scheduling is work-stealing over chunked ranges (steal.hpp): the index
// space is split into one contiguous, cost-balanced seed range per worker
// (degree-aware estimates when the caller has them - per-source costs are
// heavy-tailed, a handful of hub ASes dominate a sweep), owners claim
// geometric chunks off the front of their range, and an idle worker steals
// the back half of a victim's remainder. Compared to the previous design -
// a single shared atomic cursor claiming one source per fetch_add - this
// removes the per-item claim from the hot path (one CAS per *chunk*, on a
// per-worker cache line) and stops tail sources from serializing the
// sweep: a mega-degree source pins one worker while the rest redistribute
// everything else among themselves. The old driver lives on as the
// measured baseline of the BM_MapSources_* benches, in
// bench/map_indices_atomic.hpp.
//
// NUMA placement rides on the same seeding: ExecPolicy pins worker
// threads to cpus (TopologyPlacement), dealt to nodes in the same
// contiguous blocks as the seed ranges, so a node's workers walk a
// node-local shard of the source space.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "panagree/obs/metrics.hpp"
#include "panagree/paths/placement.hpp"
#include "panagree/paths/steal.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/graph.hpp"
#include "panagree/util/error.hpp"

namespace panagree::paths {

namespace detail {

/// Driver metrics. Workers tally locally and flush once at exit, so the
/// instrumented hot loop adds no atomics at all; under PANAGREE_OBS_OFF
/// the tally code compiles out entirely (obs::enabled() is constexpr).
struct DriverMetrics {
  obs::Counter& items_claimed;
  obs::Counter& items_stolen;
  obs::Counter& steal_failures;
  obs::Histogram& worker_busy_ns;
};

[[nodiscard]] inline DriverMetrics& driver_metrics() {
  static DriverMetrics metrics{
      obs::Registry::global().counter("paths.items_claimed"),
      obs::Registry::global().counter("paths.items_stolen"),
      obs::Registry::global().counter("paths.steal_failures"),
      obs::Registry::global().histogram("paths.worker_busy_ns"),
  };
  return metrics;
}

/// One worker's local tallies; flushed by the destructor (covers every
/// exit path of the worker body, including the failure returns).
struct WorkerTally {
  std::uint64_t claimed = 0;
  std::uint64_t stolen = 0;
  std::uint64_t steal_failures = 0;
  std::uint64_t busy_ns = 0;

  ~WorkerTally() {
    if constexpr (obs::enabled()) {
      DriverMetrics& metrics = driver_metrics();
      if (claimed != 0) {
        metrics.items_claimed.add(claimed);
      }
      if (stolen != 0) {
        metrics.items_stolen.add(stolen);
      }
      if (steal_failures != 0) {
        metrics.steal_failures.add(steal_failures);
      }
      metrics.worker_busy_ns.record(busy_ns);
    }
  }
};

[[nodiscard]] inline std::uint64_t busy_clock_ns() noexcept {
  if constexpr (obs::enabled()) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  } else {
    return 0;
  }
}

}  // namespace detail

/// Resolves a requested worker count: 0 means "use the hardware", anything
/// else is taken literally. Always >= 1.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t requested);

/// Below this many sources the driver runs serially regardless of the
/// requested worker count: thread spawn/join overhead dwarfs tiny
/// workloads, and results are identical either way.
inline constexpr std::size_t kMinParallelSources = 32;

/// How workers are placed on the machine. Results never depend on it.
struct ExecPolicy {
  /// Pin each worker thread to a cpu (node-blocked when the placement has
  /// several NUMA nodes). Defaults off: pinning helps dedicated sweep /
  /// serve processes and hurts oversubscribed shared hosts.
  bool pin_threads = false;
  /// Machine model used for pinning; nullptr = the detected system
  /// placement (TopologyPlacement::system()).
  const TopologyPlacement* placement = nullptr;
};

/// Tuning knobs of map_indices. The defaults reproduce the plain
/// map_indices(count, threads, fn) behavior.
struct MapOptions {
  /// Workload size below which the driver stays serial - keep the default
  /// for cheap per-source units, lower it when each unit is a heavy batch.
  std::size_t min_parallel = kMinParallelSources;
  /// Optional per-index cost estimates (size == count) seeding the
  /// initial partition; empty = equal-size seed ranges. Estimates only
  /// steer the seeding - stealing corrects any misestimate - so cheap
  /// proxies (degrees) are the right fidelity.
  std::span<const std::uint64_t> costs = {};
  ExecPolicy exec;
};

/// Degree-aware cost estimates for bounded-depth per-source enumerations:
/// cost(src) = 1 + sum of degree(neighbor) over src's neighbors - the
/// exact number of depth-2 extension candidates, the dominant term of the
/// length-3 analyses and a sound proxy for deeper walks.
[[nodiscard]] std::vector<std::uint64_t> two_hop_cost_estimates(
    const topology::CompiledTopology& topo,
    std::span<const topology::AsId> sources);

/// Binds the pages of `topo`'s CSR entry array and role lane to the
/// placement's NUMA nodes in contiguous per-node AS shards - the same
/// contiguous blocks node_of_worker deals workers into, so a node's
/// workers walk node-local rows. Best-effort and a no-op (returns false)
/// on single-node placements; already-touched private pages stay where
/// first-touch put them (bind right after loading a snapshot for the
/// bind to matter). Results are byte-identical either way.
bool bind_topology_to_nodes(const TopologyPlacement& placement,
                            const topology::CompiledTopology& topo);

/// Runs `fn(i)` for every index in [0, count) and returns the results in
/// index order - the generic core of the per-source driver, also the
/// fan-out for any other independent unit of work (the deployment
/// optimizer maps over *candidate scenarios* with it). `fn` must be
/// callable concurrently from multiple threads; its result type must be
/// default-constructible and movable. The first exception thrown by any
/// invocation is rethrown on the calling thread after all workers have
/// drained.
template <typename Fn>
[[nodiscard]] auto map_indices(std::size_t count, std::size_t threads,
                               Fn&& fn, const MapOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  // std::vector<bool> packs bits: concurrent writes to distinct indices
  // would race on shared bytes. Return char/int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "map_indices: bool results are not thread-safe "
                "(vector<bool> packs bits)");
  util::require(count <= std::numeric_limits<std::uint32_t>::max(),
                "map_indices: count exceeds 32-bit index space");
  std::vector<Result> results(count);
  const std::size_t workers = std::min(resolve_thread_count(threads), count);
  if (workers <= 1 || count < options.min_parallel) {
    detail::WorkerTally tally;
    const std::uint64_t start = detail::busy_clock_ns();
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    tally.busy_ns = detail::busy_clock_ns() - start;
    tally.claimed = count;
    return results;
  }

  // Seed one range per worker, cost-balanced when estimates were given.
  const auto seeds = partition_by_cost(options.costs, count, workers);
  std::vector<detail::StealRange> ranges(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    ranges[w].reset(seeds[w].first, seeds[w].second);
  }

  // Indices executed so far, the termination test: work only ever moves
  // between ranges, so remaining == 0 means every index ran (or is
  // running on the worker that claimed it). Own cache line - this is the
  // one shared counter left, written once per chunk, not per item.
  struct alignas(kCacheLineAlign) Shared {
    std::atomic<std::size_t> remaining{0};
    alignas(kCacheLineAlign) std::atomic<bool> failed{false};
  } shared;
  shared.remaining.store(count, std::memory_order_relaxed);
  std::mutex error_mutex;
  std::exception_ptr error;

  const TopologyPlacement* placement =
      options.exec.placement != nullptr ? options.exec.placement
                                        : &TopologyPlacement::system();
  const bool pin = options.exec.pin_threads;

  const auto worker = [&](std::size_t self) {
    if (pin) {
      // Best-effort: a refused bind runs unpinned, results unchanged.
      (void)placement->bind_worker(self, workers);
    }
    detail::WorkerTally tally;  // flushes to the obs registry at exit
    bool range_is_stolen = false;
    detail::StealRange& own = ranges[self];
    for (;;) {
      std::uint32_t begin = 0;
      std::uint32_t end = 0;
      while (own.try_claim(begin, end)) {
        if (shared.failed.load(std::memory_order_relaxed)) {
          return;
        }
        const std::uint64_t start = detail::busy_clock_ns();
        try {
          for (std::uint32_t i = begin; i < end; ++i) {
            results[i] = fn(static_cast<std::size_t>(i));
          }
        } catch (...) {
          shared.failed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) {
            error = std::current_exception();
          }
          return;
        }
        tally.busy_ns += detail::busy_clock_ns() - start;
        // Attribution: items run out of the seed range count as claimed,
        // items run after a steal as stolen (each item exactly once, by
        // the worker that executed it).
        (range_is_stolen ? tally.stolen : tally.claimed) += end - begin;
        shared.remaining.fetch_sub(end - begin, std::memory_order_acq_rel);
      }
      // Own range dry: scan victims round-robin for a back half.
      bool stole = false;
      for (std::size_t off = 1; off < workers && !stole; ++off) {
        const std::size_t victim = (self + off) % workers;
        if (ranges[victim].try_steal(begin, end)) {
          own.reset(begin, end);  // stolen work is stealable in turn
          range_is_stolen = true;
          stole = true;
        }
      }
      if (!stole) {
        if (shared.remaining.load(std::memory_order_acquire) == 0 ||
            shared.failed.load(std::memory_order_relaxed)) {
          return;
        }
        // A full victim scan came up empty while work is still in
        // flight: the steal-failure count is the driver's contention /
        // idle-spin signal.
        ++tally.steal_failures;
        // Everything is claimed-and-running or briefly in transit between
        // ranges; don't spin the cpu a working thread could use.
        std::this_thread::yield();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back(worker, t);
    }
  } catch (...) {
    // Thread creation failed (resource pressure): drain the workers that
    // did start, then let the error propagate - never terminate().
    shared.failed.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) {
      t.join();
    }
    throw;
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return results;
}

/// map_indices with an explicit serial-threshold override and default
/// options otherwise (the pre-MapOptions calling convention).
template <typename Fn>
[[nodiscard]] auto map_indices(std::size_t count, std::size_t threads,
                               Fn&& fn, std::size_t min_parallel)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  MapOptions options;
  options.min_parallel = min_parallel;
  return map_indices(count, threads, std::forward<Fn>(fn), options);
}

/// Runs `fn(sources[i])` for every i and returns the results in source
/// order (see map_indices for the concurrency contract).
template <typename Fn>
[[nodiscard]] auto map_sources(const std::vector<topology::AsId>& sources,
                               std::size_t threads, Fn&& fn,
                               const MapOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, topology::AsId>> {
  return map_indices(
      sources.size(), threads,
      [&](std::size_t i) { return fn(sources[i]); }, options);
}

}  // namespace panagree::paths
