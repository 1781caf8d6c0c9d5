// pb replay: the in-process reference of the serve workloads.
//
//   pb replay --snapshot S --sources N --shards K --threads T
//             --in LINES --out DIGESTS
//
// Builds the serving stack exactly like panagree-serve does
// (servecfg::ServeContext, primed the same way) and answers request lines
// through ShardRouter::handle_line - the --direct contract that daemon
// responses must match byte for byte. LINES holds `R<TAB>json` (a request,
// answered concurrently with its neighbours) and `B<TAB>json` (a barrier:
// answered alone, after everything before it; rebases go here so every
// request is answered against a fixed epoch). DIGESTS gets
// `digest<TAB>bytes<TAB>status` per input line, in input order.
#include <atomic>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve_common.hpp"

namespace perfbench {

int run_replay(int argc, char** argv) {
  std::string snapshot;
  std::string in_path;
  std::string out_path;
  std::size_t sources = 0;
  std::size_t shards = 1;
  std::size_t threads = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--snapshot") {
      snapshot = value;
    } else if (arg == "--in") {
      in_path = value;
    } else if (arg == "--out") {
      out_path = value;
    } else if (arg == "--sources") {
      sources = std::stoul(value);
    } else if (arg == "--shards") {
      shards = std::stoul(value);
    } else if (arg == "--threads") {
      threads = std::max<std::size_t>(1, std::stoul(value));
    } else {
      std::cerr << "pb replay: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (snapshot.empty() || in_path.empty() || out_path.empty() ||
      sources == 0) {
    std::cerr << "pb replay: need --snapshot, --sources, --in and --out\n";
    return 2;
  }
  std::vector<std::pair<bool, std::string>> lines;  // (barrier, request)
  {
    std::ifstream in(in_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.size() < 2 || (line[0] != 'R' && line[0] != 'B')) {
        std::cerr << "pb replay: malformed input line\n";
        return 2;
      }
      lines.emplace_back(line[0] == 'B', line.substr(2));
    }
  }

  panagree::servecfg::ServeContext context(snapshot.c_str(), sources, threads,
                                           /*max_batch=*/256, shards);
  context.prime();

  std::vector<std::string> responses(lines.size());
  std::size_t next = 0;
  while (next < lines.size()) {
    if (lines[next].first) {
      context.router.handle_line(lines[next].second, responses[next]);
      ++next;
      continue;
    }
    std::size_t stop = next;
    while (stop < lines.size() && !lines[stop].first) {
      ++stop;
    }
    std::atomic<std::size_t> cursor{next};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = cursor.fetch_add(1); i < stop;
             i = cursor.fetch_add(1)) {
          context.router.handle_line(lines[i].second, responses[i]);
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    next = stop;
  }

  std::ofstream out(out_path);
  for (const std::string& response : responses) {
    out << response_digest(response) << '\t' << response.size() << '\t'
        << (response_ok(response) ? "ok" : "error") << '\n';
  }
  return out ? 0 : 1;
}

}  // namespace perfbench
