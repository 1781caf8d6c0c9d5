// pb load: the single-process load generator of the serve workloads.
//
//   pb load --port P --in REQUESTS --out RESULTS [--closed]
//           [--timeout-ms T]
//
// REQUESTS holds one request per line: `offset_us<TAB>conn<TAB>json`.
// One thread drives every connection from a single ppoll() loop, so the
// generator adds one runnable thread to the host, not two per
// connection. Open loop (default): each request is written at
// t0 + offset, whether or not earlier responses have arrived; responses
// are matched to requests by wire id (the server may answer a
// connection's requests out of order). Closed loop (--closed): each
// connection sends its next request only after the previous response,
// offsets ignored.
//
// RESULTS gets one line per request, in input order:
//   index sched_ns sent_ns recv_ns status bytes digest
// with times relative to t0 (-1 when the event never happened), status
// one of ok/error/timeout/refused/send_failed, and digest the
// id-normalized FNV-1a of the response (common.hpp).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

struct Request {
  std::uint64_t offset_ns = 0;
  std::size_t conn = 0;
  std::uint64_t id = 0;
  std::string line;  // newline-terminated
};

struct Result {
  std::int64_t sched_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  const char* status = "timeout";
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
};

/// A non-blocking loopback connection, or -1.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One connection's share of the stream plus its socket.
struct Connection {
  int fd = -1;
  bool open = false;
  std::vector<std::size_t> requests;  // indices, in send order
  std::size_t next = 0;               // next of `requests` to send
  std::size_t received = 0;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  /// Request bytes handed over but not yet accepted by the socket.
  std::string outbox;
  /// Bytes of the response line being received.
  std::string pending;
};

class Loader {
 public:
  Loader(std::vector<Request> requests, std::size_t conns,
         std::uint64_t timeout_ns)
      : requests_(std::move(requests)),
        results_(requests_.size()),
        conns_(conns),
        timeout_ns_(timeout_ns) {
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      Connection& c = conns_[requests_[i].conn % conns_.size()];
      c.requests.push_back(i);
      c.by_id.emplace(requests_[i].id, i);
      results_[i].sched_ns = static_cast<std::int64_t>(requests_[i].offset_ns);
      last_offset_ns_ = std::max(last_offset_ns_, requests_[i].offset_ns);
    }
  }

  void run(std::uint16_t port, bool closed) {
    for (Connection& c : conns_) {
      c.fd = connect_loopback(port);
      c.open = c.fd >= 0;
      if (!c.open) {
        for (const std::size_t i : c.requests) {
          results_[i].status = "refused";
        }
      }
    }
    t0_ = now_ns() + 20'000'000;  // every connection is up before t0
    closed_ = closed;
    closed ? closed_loop() : open_loop();
    for (Connection& c : conns_) {
      if (c.fd >= 0) {
        ::close(c.fd);
      }
    }
  }

  void write(std::ostream& out) const {
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      out << i << '\t' << r.sched_ns << '\t' << r.sent_ns << '\t'
          << r.recv_ns << '\t' << r.status << '\t' << r.bytes << '\t'
          << r.digest << '\n';
    }
  }

 private:
  [[nodiscard]] std::int64_t since_t0() const {
    return static_cast<std::int64_t>(now_ns()) -
           static_cast<std::int64_t>(t0_);
  }

  /// Open loop: every request goes out at its offset; the loop ends when
  /// every open connection has all its answers or the last offset plus the
  /// timeout has passed.
  void open_loop() {
    std::vector<std::size_t> order(requests_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return requests_[a].offset_ns < requests_[b].offset_ns;
                     });
    std::size_t due = 0;
    const std::uint64_t deadline = t0_ + last_offset_ns_ + timeout_ns_;
    while (busy()) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) {
        break;
      }
      for (; due < order.size() &&
             t0_ + requests_[order[due]].offset_ns <= now;
           ++due) {
        send(order[due]);
      }
      const std::uint64_t wake =
          due < order.size() ? t0_ + requests_[order[due]].offset_ns
                             : deadline;
      wait(wake > now ? wake - now : 0);
    }
  }

  /// Closed loop: each connection keeps one request in flight; the timeout
  /// runs from each send.
  void closed_loop() {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::max<std::int64_t>(0, -since_t0())));
    std::uint64_t deadline = t0_ + timeout_ns_;
    for (Connection& c : conns_) {
      if (c.open && !c.requests.empty()) {
        const std::size_t i = c.requests[c.next];
        results_[i].sched_ns = since_t0();
        send(i);
      }
    }
    while (busy()) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) {
        break;
      }
      if (wait(deadline - now)) {
        deadline = now_ns() + timeout_ns_;
      }
    }
  }

  [[nodiscard]] bool busy() const {
    return std::any_of(conns_.begin(), conns_.end(), [](const Connection& c) {
      return c.open && c.received < c.requests.size();
    });
  }

  /// Hands request i to its connection's socket.
  void send(std::size_t i) {
    Connection& c = conns_[requests_[i].conn % conns_.size()];
    ++c.next;
    if (!c.open) {
      return;
    }
    results_[i].sent_ns = since_t0();
    c.outbox.append(requests_[i].line);
    flush(c);
  }

  void flush(Connection& c) {
    while (c.open && !c.outbox.empty()) {
      const ssize_t n =
          ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.outbox.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (!(n < 0 && errno == EINTR)) {
        fail(c);
      }
    }
  }

  /// A connection whose socket failed: its unsent requests are marked,
  /// its unanswered ones stay timeouts.
  void fail(Connection& c) {
    for (const std::size_t i : c.requests) {
      if (results_[i].recv_ns < 0 && results_[i].sent_ns < 0) {
        results_[i].status = "send_failed";
      }
    }
    ::shutdown(c.fd, SHUT_RDWR);
    c.open = false;
  }

  /// Waits up to `timeout_ns` for socket events and handles them; returns
  /// true if a response arrived.
  bool wait(std::uint64_t timeout_ns) {
    std::vector<pollfd> fds;
    std::vector<Connection*> who;
    for (Connection& c : conns_) {
      if (c.open) {
        fds.push_back(pollfd{
            c.fd,
            static_cast<short>(POLLIN | (c.outbox.empty() ? 0 : POLLOUT)), 0});
        who.push_back(&c);
      }
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) {
      return false;
    }
    bool answered = false;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & POLLOUT) != 0) {
        flush(*who[k]);
      }
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        answered = receive(*who[k]) || answered;
      }
    }
    return answered;
  }

  /// Reads what the socket holds; returns true if a response completed.
  bool receive(Connection& c) {
    const ssize_t n = ::recv(c.fd, chunk_.data(), chunk_.size(), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return false;
    }
    if (n <= 0) {
      c.open = false;
      return false;
    }
    const std::int64_t at = since_t0();
    bool answered = false;
    const char* begin = chunk_.data();
    const char* const end = begin + n;
    while (begin < end) {
      const char* newline =
          static_cast<const char*>(std::memchr(begin, '\n', end - begin));
      c.pending.append(begin, newline == nullptr ? end : newline);
      if (newline == nullptr) {
        break;
      }
      begin = newline + 1;
      const auto it = c.by_id.find(response_id(c.pending));
      if (it != c.by_id.end() && results_[it->second].recv_ns < 0) {
        Result& r = results_[it->second];
        r.recv_ns = at;
        r.status = response_ok(c.pending) ? "ok" : "error";
        r.bytes = c.pending.size() + 1;
        r.digest = response_digest(c.pending);
        ++c.received;
        answered = true;
        if (closed_ && c.next < c.requests.size()) {
          const std::size_t i = c.requests[c.next];
          results_[i].sched_ns = since_t0();
          send(i);
        }
      }
      c.pending.clear();
    }
    return answered;
  }

  std::vector<Request> requests_;
  std::vector<Result> results_;
  std::vector<Connection> conns_;
  std::uint64_t timeout_ns_;
  std::uint64_t last_offset_ns_ = 0;
  std::uint64_t t0_ = 0;
  bool closed_ = false;
  std::vector<char> chunk_ = std::vector<char>(1 << 16);
};

}  // namespace

int run_load(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string in_path;
  std::string out_path;
  bool closed = false;
  std::uint64_t timeout_ms = 10'000;
  std::size_t conns = 4;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    } else if (arg == "--in" && has_value) {
      in_path = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--timeout-ms" && has_value) {
      timeout_ms = std::stoull(argv[++i]);
    } else if (arg == "--conns" && has_value) {
      conns = std::stoul(argv[++i]);
    } else if (arg == "--closed") {
      closed = true;
    } else {
      std::cerr << "pb load: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (port == 0 || in_path.empty() || out_path.empty() || conns == 0 ||
      conns > 4) {
    std::cerr << "pb load: need --port, --in, --out and 1..4 --conns\n";
    return 2;
  }
  std::ifstream in(in_path);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      std::cerr << "pb load: malformed request line\n";
      return 2;
    }
    Request r;
    r.offset_ns = std::stoull(line.substr(0, a)) * 1000;
    r.conn = std::stoul(line.substr(a + 1, b - a - 1));
    r.line = line.substr(b + 1) + "\n";
    r.id = response_id(r.line);
    requests.push_back(std::move(r));
  }
  Loader loader(std::move(requests), conns, timeout_ms * 1'000'000);
  loader.run(port, closed);
  std::ofstream out(out_path);
  loader.write(out);
  return out ? 0 : 1;
}

}  // namespace perfbench
