// Shared configuration of the §VI reproduction benches: all figures run on
// the same synthetic Internet topology and the same 500-AS sample, mirroring
// the paper's single CAIDA snapshot + single AS sample.
//
// Environment overrides:
//   PANAGREE_ASES=<n>        topology size (synthetic only)
//   PANAGREE_SOURCES=<n>     analyzed-source sample size
//   PANAGREE_THREADS=<n>     worker threads (0 = hardware concurrency)
//   PANAGREE_CAIDA=<path>    run on a real CAIDA as-rel2 relationship file
//                            instead of the generator; the graph is embedded
//                            in a synthetic world (tiers, PoPs, facilities)
//                            so the geodistance/econ analyses still apply.
//   PANAGREE_SNAPSHOT=<path> mmap a compiled .pansnap topology snapshot
//                            (see panagree-compile) instead of generating,
//                            parsing, or embedding anything - the startup
//                            path for CAIDA-scale graphs. Wins over
//                            PANAGREE_CAIDA/PANAGREE_ASES.
#pragma once

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string>

#include "panagree/paths/parallel.hpp"
#include "panagree/storage/snapshot.hpp"
#include "panagree/topology/caida.hpp"
#include "panagree/topology/capacity.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/generator.hpp"

namespace panagree::benchcfg {

/// Parses a non-negative integer environment override. Malformed values
/// terminate with a clear message instead of an unhandled std::stoul
/// exception (PANAGREE_ASES=12k should not print "terminate called...").
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  std::size_t value = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc() || ptr != end) {
    std::cerr << "[bench] invalid " << name << "='" << env
              << "': expected a non-negative integer\n";
    std::exit(2);
  }
  return value;
}

/// Topology size; override with PANAGREE_ASES for quick runs.
inline std::size_t num_ases() { return env_size("PANAGREE_ASES", 12000); }

/// Analyzed-source sample size (the paper samples 500 ASes); override with
/// PANAGREE_SOURCES.
inline std::size_t num_sources() {
  return env_size("PANAGREE_SOURCES", 500);
}

/// Worker threads for per-source fan-outs (0 = one per hardware core);
/// override with PANAGREE_THREADS. Results are thread-count independent.
/// Counts above paths::kMaxThreads exit 2 like a malformed value.
inline std::size_t num_threads() {
  const std::size_t threads = env_size("PANAGREE_THREADS", 0);
  if (threads > paths::kMaxThreads) {
    std::cerr << "[bench] invalid PANAGREE_THREADS='"
              << std::getenv("PANAGREE_THREADS")
              << "': " << paths::max_threads_message() << "\n";
    std::exit(2);
  }
  return threads;
}

/// Path to a CAIDA as-rel2 file, or nullptr for the synthetic generator.
inline const char* caida_path() {
  const char* env = std::getenv("PANAGREE_CAIDA");
  return (env != nullptr && *env != '\0') ? env : nullptr;
}

/// Path to a compiled .pansnap snapshot, or nullptr.
inline const char* snapshot_path() {
  const char* env = std::getenv("PANAGREE_SNAPSHOT");
  return (env != nullptr && *env != '\0') ? env : nullptr;
}

/// Peak resident set size of this process in kilobytes (0 if unknown).
inline std::size_t peak_rss_kb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::size_t>(usage.ru_maxrss);  // KB on Linux
}

inline constexpr std::uint64_t kTopologySeed = 424242;
inline constexpr std::uint64_t kSampleSeed = 7;

inline topology::GeneratorParams internet_params() {
  topology::GeneratorParams params;
  params.num_ases = num_ases();
  params.tier1_count = 12;
  params.seed = kTopologySeed;
  return params;
}

/// The shared bench topology, whichever way it was obtained: generated,
/// CAIDA-embedded, or mmap'd from a compiled snapshot. Snapshot-backed
/// instances keep the mapping alive and serve the CompiledTopology
/// zero-copy out of the file; the others compile it lazily on first use.
class Internet {
 public:
  [[nodiscard]] const topology::Graph& graph() const {
    return snapshot_ ? snapshot_->graph() : topo_.graph;
  }
  [[nodiscard]] const geo::World& world() const {
    return snapshot_ ? snapshot_->world() : topo_.world;
  }
  [[nodiscard]] const topology::CompiledTopology& compiled() const {
    if (snapshot_) {
      return snapshot_->topology();
    }
    if (!compiled_) {
      compiled_.emplace(topo_.graph);
    }
    return *compiled_;
  }
  [[nodiscard]] bool from_snapshot() const { return snapshot_.has_value(); }
  /// The backing mapped snapshot, or nullptr when generated / CAIDA-
  /// parsed (the sharded serving path reads the shard-plan and
  /// primed-baseline sections straight off it).
  [[nodiscard]] const storage::MappedSnapshot* snapshot() const {
    return snapshot_ ? &*snapshot_ : nullptr;
  }
  /// Wall time of the load (snapshot mmap or generate/parse + embed).
  [[nodiscard]] double load_ms() const { return load_ms_; }

 private:
  friend Internet load_internet(std::size_t, const char*);
  std::optional<storage::MappedSnapshot> snapshot_;
  topology::GeneratedTopology topo_;
  mutable std::optional<topology::CompiledTopology> compiled_;
  double load_ms_ = 0.0;
};

/// Loads the shared topology with degree-gravity capacities assigned.
/// Priority: `snapshot_override` (a tool's --snapshot flag), then
/// PANAGREE_SNAPSHOT, then PANAGREE_CAIDA, then the synthetic generator.
/// `synthetic_cap` bounds the synthetic size for the heavier benches; a
/// CAIDA graph or snapshot is used as-is. Snapshots carry capacities
/// (panagree-compile assigns them), so nothing is recomputed on that path.
inline Internet load_internet(std::size_t synthetic_cap = 0,
                              const char* snapshot_override = nullptr) {
  Internet net;
  const auto start = std::chrono::steady_clock::now();
  const char* snapshot =
      snapshot_override != nullptr ? snapshot_override : snapshot_path();
  if (snapshot != nullptr) {
    net.snapshot_.emplace(storage::MappedSnapshot::open(snapshot));
    net.load_ms_ = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    std::cerr << "[bench] topology: snapshot " << snapshot << ": "
              << net.graph().num_ases() << " ASes, "
              << net.graph().num_links() << " links ("
              << net.snapshot_->file_bytes() << " bytes mmap'd in "
              << net.load_ms_ << " ms)\n";
    return net;
  }
  if (const char* path = caida_path()) {
    auto dataset = topology::caida::parse_file(path);
    net.topo_ = topology::embed_relationship_graph(std::move(dataset.graph),
                                                   kTopologySeed);
    std::cerr << "[bench] topology: CAIDA " << path << ": "
              << net.topo_.graph.num_ases() << " ASes, "
              << net.topo_.graph.num_links() << " links\n";
  } else {
    topology::GeneratorParams params = internet_params();
    if (synthetic_cap > 0 && params.num_ases > synthetic_cap) {
      params.num_ases = synthetic_cap;
    }
    net.topo_ = topology::generate_internet(params);
    std::cerr << "[bench] topology: " << net.topo_.graph.num_ases()
              << " ASes, " << net.topo_.graph.num_links() << " links (seed "
              << kTopologySeed << ")\n";
  }
  topology::assign_degree_gravity_capacities(net.topo_.graph);
  net.load_ms_ = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return net;
}

}  // namespace panagree::benchcfg
