// Per-source parallel driver for path enumeration.
//
// Every large-scale analysis in this repo fans out over independent source
// ASes (SPP compilation per node, diversity counts per sampled AS, the
// optimizer's candidate scenarios). The driver runs a per-index function
// over a std::thread pool and collects results *in index order*: each
// result lands in its index's preallocated slot, so the merged output is
// byte-identical for every thread count, including 1. Parallelism never
// changes results, only wall-clock time.
//
// Scheduling is guided self-scheduling off one shared cursor: a worker
// claims the contiguous chunk [cursor, cursor + chunk) with one CAS, where
// chunk = max(1, remaining / (2 * workers)). Early claims are large, so
// the cursor's cache line is touched a few dozen times per fan-out rather
// than once per item (a per-item fetch_add contends badly on cheap
// items). Chunks shrink with what is left, down to single indices at the
// tail: a worker held up by a heavy source (a hub AS among stubs) keeps
// only its current chunk while the others drain the rest of the space.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "panagree/obs/metrics.hpp"
#include "panagree/topology/graph.hpp"
#include "panagree/util/error.hpp"

namespace panagree::paths {

// The std constant is the right alignment for keeping hot shared atomics
// off each other's cache lines, but naming it is an ABI-affecting choice
// GCC flags with -Winterference-size; capture it once, silenced, and use
// the local constant everywhere.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
#ifdef __cpp_lib_hardware_interference_size
inline constexpr std::size_t kCacheLineAlign =
    std::hardware_destructive_interference_size;
#else
inline constexpr std::size_t kCacheLineAlign = 64;
#endif
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace detail {

/// Driver metrics. Workers tally locally and flush once at exit, so the
/// instrumented hot loop adds no atomics at all; under PANAGREE_OBS_OFF
/// the tally code compiles out entirely (obs::enabled() is constexpr).
struct DriverMetrics {
  obs::Counter& items_claimed;
  obs::Histogram& worker_busy_ns;
};

[[nodiscard]] inline DriverMetrics& driver_metrics() {
  static DriverMetrics metrics{
      obs::Registry::global().counter("paths.items_claimed"),
      obs::Registry::global().histogram("paths.worker_busy_ns"),
  };
  return metrics;
}

/// One worker's local tallies; flushed by the destructor (covers every
/// exit path of the worker body, including the failure returns).
struct WorkerTally {
  std::uint64_t claimed = 0;
  std::uint64_t busy_ns = 0;

  ~WorkerTally() {
    if constexpr (obs::enabled()) {
      DriverMetrics& metrics = driver_metrics();
      if (claimed != 0) {
        metrics.items_claimed.add(claimed);
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

/// Claims the next guided chunk [begin, end) of [0, count) off `cursor`:
/// half of an even per-worker share of what is left, at least one index.
/// False once the cursor has passed `count`.
[[nodiscard]] inline bool claim_chunk(std::atomic<std::size_t>& cursor,
                                      std::size_t count, std::size_t workers,
                                      std::size_t& begin, std::size_t& end) {
  std::size_t at = cursor.load(std::memory_order_relaxed);
  for (;;) {
    if (at >= count) {
      return false;
    }
    const std::size_t chunk =
        std::max<std::size_t>(1, (count - at) / (2 * workers));
    // Relaxed suffices: the CAS only hands out disjoint ranges; results
    // reach the caller through the worker joins.
    if (cursor.compare_exchange_weak(at, at + chunk,
                                     std::memory_order_relaxed)) {
      begin = at;
      end = at + chunk;
      return true;
    }
  }
}

}  // namespace detail

/// Largest worker count any fan-out or tool accepts. Far above the cores
/// of any host this runs on, and low enough that a mistyped --threads or
/// PANAGREE_THREADS is a usage error rather than thousands of threads.
inline constexpr std::size_t kMaxThreads = 256;

/// Why a worker count above kMaxThreads is refused; the tools print it
/// after "invalid <flag> '<value>': ".
[[nodiscard]] inline std::string max_threads_message() {
  return "expected at most " + std::to_string(kMaxThreads) +
         " worker threads";
}

/// Resolves a requested worker count: 0 means "use the hardware" (capped
/// at kMaxThreads), anything else is taken literally. Always >= 1; throws
/// util::PreconditionError above kMaxThreads.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t requested);

/// Below this many sources the driver runs serially regardless of the
/// requested worker count: thread spawn/join overhead dwarfs tiny
/// workloads, and results are identical either way.
inline constexpr std::size_t kMinParallelSources = 32;

/// The calling thread's current affinity as "cpus=K/N" (K allowed of N
/// online) - what panagree-serve reports in its readiness line.
[[nodiscard]] std::string affinity_summary();

/// Runs `fn(i)` for every index in [0, count) and returns the results in
/// index order - the generic core of the per-source driver, also the
/// fan-out for any other independent unit of work (the deployment
/// optimizer maps over *candidate scenarios* with it). `fn` must be
/// callable concurrently from multiple threads; its result type must be
/// default-constructible and movable. Workloads below `min_parallel` run
/// serially on the calling thread - keep the default for cheap
/// per-source units, lower it when each unit is a heavy batch. The first
/// exception thrown by any invocation is rethrown on the calling thread
/// after all workers have drained.
template <typename Fn>
[[nodiscard]] auto map_indices(std::size_t count, std::size_t threads,
                               Fn&& fn,
                               std::size_t min_parallel = kMinParallelSources)
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
  if (workers <= 1 || count < min_parallel) {
    detail::WorkerTally tally;
    const std::uint64_t start = detail::busy_clock_ns();
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    tally.busy_ns = detail::busy_clock_ns() - start;
    tally.claimed = count;
    return results;
  }

  // The one shared cursor, on its own cache line so the failure flag
  // (read before every claim) does not bounce with it.
  struct alignas(kCacheLineAlign) Shared {
    std::atomic<std::size_t> cursor{0};
    alignas(kCacheLineAlign) std::atomic<bool> failed{false};
  } shared;
  std::mutex error_mutex;
  std::exception_ptr error;

  const auto worker = [&] {
    detail::WorkerTally tally;  // flushes to the obs registry at exit
    std::size_t begin = 0;
    std::size_t end = 0;
    while (!shared.failed.load(std::memory_order_relaxed) &&
           detail::claim_chunk(shared.cursor, count, workers, begin, end)) {
      const std::uint64_t start = detail::busy_clock_ns();
      try {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = fn(i);
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
      tally.claimed += end - begin;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back(worker);
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

/// Runs `fn(sources[i])` for every i and returns the results in source
/// order (see map_indices for the concurrency contract).
template <typename Fn>
[[nodiscard]] auto map_sources(const std::vector<topology::AsId>& sources,
                               std::size_t threads, Fn&& fn,
                               std::size_t min_parallel = kMinParallelSources)
    -> std::vector<std::invoke_result_t<Fn&, topology::AsId>> {
  return map_indices(
      sources.size(), threads,
      [&](std::size_t i) { return fn(sources[i]); }, min_parallel);
}

}  // namespace panagree::paths
