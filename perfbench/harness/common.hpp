// Shared pieces of the perfbench harness: the response digest both sides
// of the byte-identity check use, the clock, and the span recorder of the
// traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (the clock of every timestamp the harness emits).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Position and length of the decimal value of the first `"id":` field,
/// or {npos, 0} when the line carries none.
inline std::pair<std::size_t, std::size_t> id_span(std::string_view line) {
  constexpr std::string_view kKey = "\"id\":";
  const std::size_t key = line.find(kKey);
  if (key == std::string_view::npos) {
    return {std::string_view::npos, 0};
  }
  const std::size_t begin = key + kKey.size();
  std::size_t end = begin;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') {
    ++end;
  }
  return {begin, end - begin};
}

/// The wire id of a response line (0 when absent or malformed).
inline std::uint64_t response_id(std::string_view line) {
  const auto [begin, len] = id_span(line);
  std::uint64_t id = 0;
  for (std::size_t i = 0; begin != std::string_view::npos && i < len; ++i) {
    id = id * 10 + static_cast<std::uint64_t>(line[begin + i] - '0');
  }
  return id;
}

/// FNV-1a 64 over a response line with its id value elided and any
/// trailing newline dropped: two responses to the same request under
/// different wire ids digest equal exactly when their remaining bytes
/// are identical, which lets the reference replay answer each distinct
/// request once.
inline std::uint64_t response_digest(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const auto [begin, len] = id_span(line);
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (begin != std::string_view::npos && i >= begin && i < begin + len) {
      continue;
    }
    hash ^= static_cast<unsigned char>(line[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// True for a response that reports success.
inline bool response_ok(std::string_view line) {
  return line.find("\"ok\":true") != std::string_view::npos;
}

/// In-memory span recorder of the traced run: spans are kept in a vector
/// and written once, as Chrome trace JSON (the obs/trace format), when the
/// run ends. Single-threaded by design: the traced tour calls each layer
/// from one thread.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /// Wire id of the request the span belongs to (0 = none).
    std::uint64_t request = 0;
  };

  SpanRecorder() : origin_ns_(now_ns()) {}

  [[nodiscard]] std::uint64_t origin_ns() const { return origin_ns_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span and returns its id; close it with end(id).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t request = 0) {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{name, now_ns(), 0, id, parent, request});
    return id;
  }
  void end(std::uint64_t id) { spans_[id - 1].end_ns = now_ns(); }

  /// Records a span whose bounds were measured elsewhere.
  std::uint64_t record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent,
                       std::uint64_t request = 0) {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
    return id;
  }

  /// Writes {"traceEvents":[...]} with ts/dur in microseconds relative to
  /// the recorder's construction.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\"";
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << buf << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent;
      if (s.request != 0) {
        out << ",\"request\":" << s.request;
      }
      out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::uint64_t origin_ns_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, std::uint64_t parent = 0)
      : rec_(rec), id_(rec.begin(name, parent)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

// Subcommands (one translation unit each).
int run_load(int argc, char** argv);
int run_replay(int argc, char** argv);
int run_trace(int argc, char** argv);

}  // namespace perfbench
