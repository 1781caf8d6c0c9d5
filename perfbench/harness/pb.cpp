// pb: the perfbench harness binary.
//
//   pb info                      build identity of this build, as JSON
//   pb pools --snapshot S --sources N --seed X --candidates P
//                                the generator's input pools, as JSON
//   pb load ...                  open/closed-loop load generator
//   pb replay ...                in-process reference replay
//   pb trace ...                 the traced layer tour
//
// The harness is built from the same source tree as the tools it drives,
// so `pb info` describes their build too.
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench_common.hpp"
#include "common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/obs/build_info.hpp"
#include "panagree/paths/role_filter.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/storage/snapshot.hpp"

using namespace panagree;
using topology::AsId;

namespace perfbench {
namespace {

int run_info() {
  const obs::BuildInfo& info = obs::build_info();
  std::cout << "{\"git_describe\":\"" << info.git_describe
            << "\",\"compiler\":\"" << info.compiler << "\",\"build_type\":\""
            << info.build_type << "\",\"obs\":\"" << info.obs
            << "\",\"simd\":\"" << paths::role_filter_dispatch()
            << "\",\"hardware_concurrency\":"
            << std::thread::hardware_concurrency() << "}\n";
  return 0;
}

/// The sampled (cached) sources of a serving process and a seeded pool of
/// single-link peering candidates: everything the request generator
/// draws from, so that only generated bytes ever reach the programs.
/// Each candidate comes with its predicted what-if cost - the baseline
/// paths of the sampled sources inside its invalidation ball, which a
/// what-if re-enumerates and re-scores - so the generator can stratify
/// its draws and every seed gets the same cost mix.
int run_pools(int argc, char** argv) {
  std::string snapshot;
  std::size_t sources = 0;
  std::size_t candidates = 0;
  std::uint64_t seed = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--snapshot") {
      snapshot = value;
    } else if (arg == "--sources") {
      sources = std::stoul(value);
    } else if (arg == "--candidates") {
      candidates = std::stoul(value);
    } else if (arg == "--seed") {
      seed = std::stoull(value);
    } else {
      std::cerr << "pb pools: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (snapshot.empty() || sources == 0) {
    std::cerr << "pb pools: need --snapshot and --sources\n";
    return 2;
  }
  const storage::MappedSnapshot snap = storage::MappedSnapshot::open(snapshot);
  const auto sampled = diversity::sample_sources(snap.graph(), sources,
                                                 benchcfg::kSampleSeed);
  const auto deltas =
      scenario::candidate_peering_deltas(snap.topology(), candidates, seed);
  // Without a primed baseline every sampled source counts as one path.
  std::unordered_map<AsId, std::size_t> paths_of;
  for (const AsId as : sampled) {
    paths_of[as] = 1;
  }
  if (snap.primed_baseline() && snap.shard_plan()) {
    const auto& plan_sources = snap.shard_plan()->sources;
    const auto& begin = snap.primed_baseline()->path_begin;
    for (std::size_t i = 0; i < plan_sources.size(); ++i) {
      paths_of[plan_sources[i]] = begin[i + 1] - begin[i];
    }
  }
  std::cout << "{\"num_ases\":" << snap.graph().num_ases()
            << ",\"sampled\":[";
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << sampled[i];
  }
  std::cout << "],\"candidates\":[";
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const scenario::LinkChange& link = deltas[i].add.front();
    scenario::Overlay overlay(snap.topology());
    overlay.apply(deltas[i]);
    std::size_t cost = 0;
    for (const AsId as :
         scenario::invalidation_ball(overlay, scenario::kLength3DirtyRadius)) {
      const auto it = paths_of.find(as);
      cost += it == paths_of.end() ? 0 : it->second;
    }
    std::cout << (i == 0 ? "" : ",") << "[" << link.a << "," << link.b << ","
              << cost << "]";
  }
  std::cout << "]}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    if (command == "info") {
      return perfbench::run_info();
    }
    if (command == "pools") {
      return perfbench::run_pools(argc, argv);
    }
    if (command == "load") {
      return perfbench::run_load(argc, argv);
    }
    if (command == "replay") {
      return perfbench::run_replay(argc, argv);
    }
    if (command == "trace") {
      return perfbench::run_trace(argc, argv);
    }
  } catch (const std::exception& e) {
    std::cerr << "pb " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: pb info|pools|load|replay|trace [options]\n";
  return 2;
}
