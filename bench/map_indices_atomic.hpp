// The shared-atomic-cursor parallel driver that paths::map_indices
// replaced, kept as the measured baseline of the BM_MapSources_* benches
// (like the *_GraphBaseline walkers) and checked against the serial
// result by tests/parallel_driver_test.cpp. Not a library code path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "panagree/paths/parallel.hpp"
#include "panagree/paths/steal.hpp"

namespace panagree::benchcfg {

/// One shared atomic cursor claiming one index per fetch_add, with its
/// false sharing fixed: cursor and failed each own a cache line instead
/// of splitting one, so the baseline measures the design, not the bug.
/// Identical contract and results as paths::map_indices.
template <typename Fn>
[[nodiscard]] auto map_indices_atomic(std::size_t count, std::size_t threads,
                                      Fn&& fn,
                                      std::size_t min_parallel =
                                          paths::kMinParallelSources)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_same_v<Result, bool>,
                "map_indices_atomic: bool results are not thread-safe "
                "(vector<bool> packs bits)");
  std::vector<Result> results(count);
  const std::size_t workers =
      std::min(paths::resolve_thread_count(threads), count);
  if (workers <= 1 || count < min_parallel) {
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    return results;
  }

  struct alignas(paths::kCacheLineAlign) Shared {
    std::atomic<std::size_t> cursor{0};
    alignas(paths::kCacheLineAlign) std::atomic<bool> failed{false};
  } shared;
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&] {
    while (!shared.failed.load(std::memory_order_relaxed)) {
      const std::size_t i =
          shared.cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      try {
        results[i] = fn(i);
      } catch (...) {
        shared.failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) {
          error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back(worker);
    }
  } catch (...) {
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

}  // namespace panagree::benchcfg
