#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vadasa::serve {

namespace {

/// The listen(2) backlog of a Server's socket.
constexpr int kListenBacklog = 16;

/// Writes the whole buffer, riding out EINTR and short writes. Failpoints:
/// serve.sock.write (a fire is an injected EPIPE — the caller must treat the
/// connection as dead), serve.sock.write.short (a fire truncates this pass
/// to one byte, exercising the resume-from-short-write path).
bool WriteAll(int fd, const char* data, size_t size) {
  static failpoint::Failpoint* fp_write =
      failpoint::GetFailpoint("serve.sock.write");
  static failpoint::Failpoint* fp_short =
      failpoint::GetFailpoint("serve.sock.write.short");
  size_t written = 0;
  while (written < size) {
    if (fp_write->armed() && fp_write->Fires()) return false;
    size_t want = size - written;
    if (want > 1 && fp_short->armed() && fp_short->Fires()) want = 1;
    ssize_t n = ::write(fd, data + written, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: the peer is gone.
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string ListenSpec::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + (host.empty() ? std::string("0.0.0.0") : host) + ":" +
         std::to_string(port);
}

Result<ListenSpec> ParseListenSpec(const std::string& spec) {
  ListenSpec parsed;
  if (spec.rfind("unix:", 0) == 0) {
    parsed.kind = ListenSpec::Kind::kUnix;
    parsed.path = spec.substr(5);
    if (parsed.path.empty()) {
      return Status::InvalidArgument("listen spec \"" + spec +
                                     "\" has an empty socket path");
    }
    return parsed;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    parsed.kind = ListenSpec::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("listen spec \"" + spec +
                                     "\" wants tcp:HOST:PORT");
    }
    parsed.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    if (port.empty() ||
        port.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("listen spec \"" + spec +
                                     "\" has a non-numeric port");
    }
    const long value = std::strtol(port.c_str(), nullptr, 10);
    if (value < 0 || value > 65535) {
      return Status::InvalidArgument("listen spec \"" + spec +
                                     "\" port out of range");
    }
    parsed.port = static_cast<int>(value);
    return parsed;
  }
  return Status::InvalidArgument("listen spec \"" + spec +
                                 "\" must be unix:PATH or tcp:HOST:PORT");
}

Status Listener::Bind(const ListenSpec& spec, int backlog) {
  if (fd_ >= 0) return Status::FailedPrecondition("listener already bound");
  spec_ = spec;
  if (spec.kind == ListenSpec::Kind::kUnix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (spec.path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + spec.path);
    }
    std::strncpy(addr.sun_path, spec.path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status::IoError(std::string("socket: ") + std::strerror(errno));
    }
    ::unlink(spec.path.c_str());
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status =
          Status::IoError("bind " + spec.path + ": " + std::strerror(errno));
      ::close(fd_);
      fd_ = -1;
      return status;
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(spec.port));
    if (spec.host.empty() || spec.host == "0.0.0.0") {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (spec.host == "localhost") {
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (::inet_pton(AF_INET, spec.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("not an IPv4 listen address: " +
                                     spec.host);
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status::IoError(std::string("socket: ") + std::strerror(errno));
    }
    // Restarts must not wait out TIME_WAIT on the previous instance's port.
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status = Status::IoError("bind " + spec.ToString() + ": " +
                                      std::strerror(errno));
      ::close(fd_);
      fd_ = -1;
      return status;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      bound_port_ = static_cast<int>(ntohs(bound.sin_port));
      spec_.port = bound_port_;
    }
  }
  if (::listen(fd_, backlog) != 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    Close();
    return status;
  }
  return Status::OK();
}

Result<int> Listener::Accept() {
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("accept: ") + std::strerror(errno));
    }
    if (spec_.kind == ListenSpec::Kind::kTcp) {
      // One request line, one response line: never let Nagle sit on either.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return fd;
  }
}

void Listener::Close() {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
  if (spec_.kind == ListenSpec::Kind::kUnix && !spec_.path.empty()) {
    ::unlink(spec_.path.c_str());
  }
}

Status Server::Start() {
  const ListenSpec& spec = options_.listen;
  if (spec.kind == ListenSpec::Kind::kUnix && spec.path.empty()) {
    return Status::InvalidArgument("server needs a Unix socket path to listen on");
  }
  // Touch the degraded-mode counters so scrapes carry them before any fault.
  obs::MetricsRegistry::Global().counter("serve.conn.oversized");
  obs::MetricsRegistry::Global().counter("serve.quota.admitted");
  obs::MetricsRegistry::Global().counter("serve.quota.rejected.in_flight");
  obs::MetricsRegistry::Global().counter("serve.quota.rejected.rate");
  VADASA_RETURN_NOT_OK(listener_.Bind(spec, kListenBacklog));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      return;  // Listener closed (Stop) or fatal; either way we are done.
    }
    const int fd = *accepted;
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    VADASA_METRIC_COUNT("serve.connections", 1);
    // Join the connections that ended since the last accept before starting
    // this one: an unjoined thread keeps its stack mapped.
    std::vector<std::thread> ended;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      for (const std::thread::id id : ended_) {
        ended.push_back(std::move(connections_.extract(id).mapped()));
      }
      ended_.clear();
    }
    for (std::thread& thread : ended) thread.join();
    std::lock_guard<std::mutex> lock(conn_mutex_);
    live_fds_.insert(fd);
    std::thread connection([this, fd] { HandleConnection(fd); });
    connections_.emplace(connection.get_id(), std::move(connection));
  }
}

void Server::HandleConnection(int fd) {
  // Read-side failpoints: serve.sock.read (a fire is an injected
  // ECONNRESET), serve.sock.read.eagain (a fire is an injected EAGAIN —
  // retried, but bounded so an always-fire policy cannot spin the loop
  // forever), serve.sock.read.short (a fire shrinks this pass's read request
  // to one byte, exercising line reassembly across reads).
  static failpoint::Failpoint* fp_read =
      failpoint::GetFailpoint("serve.sock.read");
  static failpoint::Failpoint* fp_eagain =
      failpoint::GetFailpoint("serve.sock.read.eagain");
  static failpoint::Failpoint* fp_rshort =
      failpoint::GetFailpoint("serve.sock.read.short");
  constexpr int kMaxInjectedEagainStreak = 1000;

  ClientQuota quota(options_.quota);
  std::string buffer;
  // Leading bytes of `buffer` already searched for '\n': each read resumes
  // the search there, so framing an L-byte line costs O(L), not O(L^2).
  size_t searched = 0;
  char chunk[4096];
  bool shutdown_requested = false;
  bool dead = false;       ///< Socket unusable (write failed / oversized line).
  bool oversized = false;  ///< The line limit tripped; owed one refusal line.
  int eagain_streak = 0;
  while (!dead && !shutdown_requested) {
    if (fp_read->armed() && fp_read->Fires()) break;
    if (fp_eagain->armed() && fp_eagain->Fires()) {
      if (++eagain_streak > kMaxInjectedEagainStreak) break;
      continue;
    }
    // Shrink the *request*, not the result: truncating after the read would
    // drop bytes the kernel already handed over.
    size_t want = sizeof(chunk);
    if (fp_rshort->armed() && fp_rshort->Fires()) want = 1;
    ssize_t n = ::read(fd, chunk, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // Client hung up.
    eagain_streak = 0;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (!dead && !shutdown_requested &&
           (newline = buffer.find('\n', searched)) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      searched = 0;
      if (line.empty()) continue;
      if (line.size() > options_.max_line_bytes) {
        oversized = true;
        dead = true;
        break;
      }
      std::string response;
      {
        // One trace id per request line: every span opened while handling —
        // including job spans re-installed on scheduler workers — and the
        // response's "trace_id" echo share it.
        obs::ScopedTraceId trace_scope(obs::MintTraceId());
        response = protocol_->Handle(line, &shutdown_requested, &quota);
      }
      response.push_back('\n');
      if (!WriteAll(fd, response.data(), response.size())) {
        // The peer is gone: stop parsing — later lines in the buffer would
        // compute answers nobody can receive.
        dead = true;
        shutdown_requested = false;
        break;
      }
    }
    searched = buffer.size();
    if (!dead && buffer.size() > options_.max_line_bytes) {
      // A partial line already past the limit can never complete legally.
      oversized = true;
      dead = true;
    }
    if (oversized) {
      // One structured refusal, then hang up: the client learns why instead
      // of watching the server buffer its flood.
      VADASA_METRIC_COUNT("serve.conn.oversized", 1);
      std::string refusal = Protocol::ErrorResponse(Status::LimitExceeded(
          "request line exceeds " + std::to_string(options_.max_line_bytes) +
          " bytes (--max-line-bytes)"));
      refusal.push_back('\n');
      (void)WriteAll(fd, refusal.data(), refusal.size());
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    live_fds_.erase(fd);
    ended_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
  if (shutdown_requested) {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
}

bool Server::AwaitShutdownFor(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  return shutdown_cv_.wait_for(lock, timeout,
                               [this] { return shutdown_requested_; });
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller still wants the joins below to have happened; the first
    // call does them, so just fall through when the thread is already gone.
  }
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<std::thread::id, std::thread> connections;
  {
    // Kick idle connections out of their blocking read; each thread closes
    // its own fd on the way out.
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(connections_);
  }
  for (auto& connection : connections) connection.second.join();
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
}

}  // namespace vadasa::serve
