// Shared command-line parsing helpers of the panagree tools.
//
// Every tool accepts a handful of numeric options (--threads, --port,
// --sources, ...). Before this header each tool rolled its own std::stoul
// calls with tool-specific failure behavior (unhandled exceptions, bare
// usage dumps); these helpers give all of them one contract:
//
//   * malformed or missing option values print
//       "<tool>: invalid <flag> '<value>': expected a non-negative integer"
//       "<tool>: <flag> requires a value"
//     to stderr and exit with kUsageExit (2) - the same exit code every
//     tool already uses for usage errors, and the same message shape
//     bench_common uses for malformed PANAGREE_* environment overrides;
//   * --threads means the same thing everywhere: worker threads for
//     per-source fan-outs, 0 = one per hardware core, at most
//     paths::kMaxThreads, overriding the PANAGREE_THREADS environment
//     default (which bench_common bounds the same way).
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "panagree/obs/build_info.hpp"
#include "panagree/obs/trace.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/paths/role_filter.hpp"

namespace panagree::cli {

/// Exit status of malformed command lines, shared by every tool.
inline constexpr int kUsageExit = 2;

/// The value of the option currently at argv[i]; prints a consistent
/// error and exits kUsageExit when it is missing. Advances i past the
/// consumed value.
inline const char* require_value(const char* tool, std::string_view flag,
                                 int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << tool << ": " << flag << " requires a value\n";
    std::exit(kUsageExit);
  }
  return argv[++i];
}

/// Parses a non-negative integer option value; prints a consistent error
/// and exits kUsageExit on anything else.
inline std::size_t parse_size(const char* tool, std::string_view flag,
                              std::string_view value) {
  std::size_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (value.empty() || ec != std::errc() ||
      ptr != value.data() + value.size()) {
    std::cerr << tool << ": invalid " << flag << " '" << value
              << "': expected a non-negative integer\n";
    std::exit(kUsageExit);
  }
  return out;
}

/// The shared --threads option (call with argv[i] == "--threads"):
/// consumes the value and returns the worker count, 0 = one per core.
/// Counts above paths::kMaxThreads exit kUsageExit before any thread
/// starts.
inline std::size_t parse_threads(const char* tool, int argc, char** argv,
                                 int& i) {
  const char* value = require_value(tool, "--threads", argc, argv, i);
  const std::size_t threads = parse_size(tool, "--threads", value);
  if (threads > paths::kMaxThreads) {
    std::cerr << tool << ": invalid --threads '" << value
              << "': " << paths::max_threads_message() << "\n";
    std::exit(kUsageExit);
  }
  return threads;
}

/// The shared --version flag: one line of build provenance (git
/// describe, compiler, obs on/off, runtime SIMD dispatch) plus the
/// compile flags on a second line. Exit 0 - tools handle --version
/// before validating any other argument.
[[noreturn]] inline void print_version(const char* tool) {
  std::cout << tool << " " << obs::build_info_line()
            << " simd=" << paths::role_filter_dispatch() << "\n"
            << "flags: " << obs::build_info().flags << "\n";
  std::exit(0);
}

/// Arms the trace recorder from PANAGREE_TRACE=<file> (no-op when the
/// variable is unset or obs is compiled out). Call once at tool startup.
inline void init_tracing() { obs::trace_init_from_env(); }

/// Default of the --slow-ms option (slow-query capture threshold in
/// milliseconds; 0 = capture every request): the PANAGREE_SLOW_MS
/// environment override when set and well-formed, `fallback` otherwise.
/// Malformed values error out like any malformed option (kUsageExit).
inline std::size_t env_slow_ms(const char* tool, std::size_t fallback) {
  const char* env = std::getenv("PANAGREE_SLOW_MS");
  if (env == nullptr || env[0] == '\0') {
    return fallback;
  }
  return parse_size(tool, "PANAGREE_SLOW_MS", env);
}

}  // namespace panagree::cli
