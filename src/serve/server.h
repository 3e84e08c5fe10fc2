#ifndef VADASA_SERVE_SERVER_H_
#define VADASA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "serve/protocol.h"
#include "serve/quota.h"

namespace vadasa::serve {

/// Where a server listens: a Unix-domain socket path or an IPv4 TCP
/// host:port. The transports are interchangeable above the fd — one NDJSON
/// protocol, quota, failpoint and drain path serves both.
struct ListenSpec {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  /// kUnix: filesystem path (a stale socket file is unlinked before bind).
  std::string path;
  /// kTcp: an IPv4 literal, "localhost", or ""/"0.0.0.0" for any interface.
  std::string host;
  /// kTcp: port; 0 binds an ephemeral port (tests read it back via
  /// Listener::bound_port).
  int port = 0;

  /// The flag spelling: "unix:PATH" or "tcp:HOST:PORT".
  std::string ToString() const;
};

/// Parses "unix:PATH" | "tcp:HOST:PORT" (the --listen flag syntax).
Result<ListenSpec> ParseListenSpec(const std::string& spec);

/// One bound, listening socket behind either backend. Accept() blocks until
/// a connection arrives or Close() tears the listener down (from any
/// thread); accepted TCP sockets get TCP_NODELAY so one-line requests are
/// not Nagle-delayed. Close() unlinks a Unix path. Single-use.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  Status Bind(const ListenSpec& spec, int backlog);
  /// The next connection fd; an error once the listener is closed.
  Result<int> Accept();
  void Close();  ///< Idempotent; wakes a blocked Accept().

  bool bound() const { return fd_ >= 0; }
  const ListenSpec& spec() const { return spec_; }
  /// TCP: the actual port after Bind (resolves an ephemeral 0). Unix: 0.
  int bound_port() const { return bound_port_; }

 private:
  ListenSpec spec_;
  /// Atomic: Close() on a stopping thread resets it while Accept() on the
  /// accept thread reads it.
  std::atomic<int> fd_{-1};
  int bound_port_ = 0;
};

struct ServerOptions {
  /// Where to listen.
  ListenSpec listen;
  /// listen(2) backlog.
  int backlog = 16;
  /// Per-connection admission quota (docs/robustness.md); the zero defaults
  /// leave connections unmetered.
  QuotaOptions quota;
  /// Longest request line a connection may send, bytes. A connection whose
  /// buffered line crosses this gets one structured LimitExceeded error line
  /// and is closed (metric: serve.conn.oversized).
  size_t max_line_bytes = 4u << 20;
};

/// A newline-delimited-JSON server over a Unix domain or TCP socket: one
/// thread per connection, each line handed to Protocol::Handle.
/// `{"op":"shutdown"}` (or Stop()) stops the accept loop, closes the
/// listener and joins every connection thread. Single-use: Start() then
/// Stop().
class Server {
 public:
  Server(Protocol* protocol, ServerOptions options)
      : protocol_(protocol), options_(std::move(options)) {}
  ~Server() { Stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Returns once the socket is accepting, with the
  /// accept loop running on a background thread.
  Status Start();

  /// Blocks until shutdown is requested (protocol op or Stop()) or
  /// `timeout` passes; returns whether shutdown was requested. A bounded wait
  /// lets a signal-driven main loop poll an atomic flag between waits (a
  /// signal handler cannot safely notify a condition variable).
  bool AwaitShutdownFor(std::chrono::milliseconds timeout);

  /// Idempotent: closes the listener, joins the accept loop and every
  /// connection thread, unlinks the socket file.
  void Stop();

  /// The listen spec the server bound.
  const ListenSpec& listen_spec() const { return listener_.spec(); }
  /// TCP: the port actually bound (an ephemeral `tcp:HOST:0` resolves here
  /// after Start). Unix: 0.
  int bound_port() const { return listener_.bound_port(); }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  Protocol* protocol_;
  ServerOptions options_;

  Listener listener_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::vector<std::thread> connections_;
  std::set<int> live_fds_;  ///< Open connection sockets, for Stop() to poke.

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace vadasa::serve

#endif  // VADASA_SERVE_SERVER_H_
