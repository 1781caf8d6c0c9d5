#include "panagree/paths/parallel.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace panagree::paths {

namespace {

std::size_t online_cpu_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t resolve_thread_count(std::size_t requested) {
  util::require(requested <= kMaxThreads,
                "resolve_thread_count: more than kMaxThreads workers");
  if (requested != 0) {
    return requested;
  }
  return std::min(online_cpu_count(), kMaxThreads);
}

std::string affinity_summary() {
  const std::size_t online = online_cpu_count();
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int allowed = CPU_COUNT(&set);
    return "cpus=" + std::to_string(allowed) + "/" + std::to_string(online);
  }
#endif
  return "cpus=" + std::to_string(online) + "/" + std::to_string(online);
}

}  // namespace panagree::paths
