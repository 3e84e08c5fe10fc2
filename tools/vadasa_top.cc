// vadasa_top — a live terminal dashboard for a running vadasa_serve:
//
//   vadasa_top --socket=/tmp/vadasa.sock [--interval-ms=1000] [--frames=0]
//   vadasa_top --socket=tcp:localhost:7411 ...
//
// --socket accepts a bare Unix path, unix:PATH, or tcp:HOST:PORT — the same
// endpoints vadasa_serve --listen binds. Each frame opens a connection,
// issues {"op":"telemetry"} and renders the response: the sampler's recent
// gauge series (queue depth, running jobs, RSS) as sparklines, fault and
// result-cache counters, and a per-op latency table decoded from the
// Prometheus exposition. --frames bounds the number of
// refreshes (0 = until the server goes away; CI uses --frames=1 as a scrape
// smoke test).
//
// Exit codes: 0 clean, 1 connection/protocol failure, 2 usage error.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/flags.h"
#include "common/json.h"
#include "serve/server.h"

namespace {

using vadasa::Json;
using vadasa::serve::ListenSpec;
using vadasa::serve::ParseListenSpec;

/// Dials a unix:PATH / tcp:HOST:PORT / bare-path endpoint; -1 on failure.
int Connect(const std::string& endpoint) {
  ListenSpec spec;
  if (endpoint.rfind("unix:", 0) == 0 || endpoint.rfind("tcp:", 0) == 0) {
    auto parsed = ParseListenSpec(endpoint);
    if (!parsed.ok()) return -1;
    spec = *parsed;
  } else {
    spec.kind = ListenSpec::Kind::kUnix;
    spec.path = endpoint;
  }
  if (spec.kind == ListenSpec::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (spec.path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return -1;
    }
    std::strncpy(addr.sun_path, spec.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(spec.port));
  const std::string host =
      (spec.host.empty() || spec.host == "localhost" || spec.host == "0.0.0.0")
          ? "127.0.0.1"
          : spec.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request/response round trip on a fresh connection. Returns false on
/// any socket failure.
bool CallTelemetry(const std::string& endpoint, std::string* response) {
  const int fd = Connect(endpoint);
  if (fd < 0) return false;
  const std::string request = "{\"op\": \"telemetry\"}\n";
  size_t written = 0;
  while (written < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + written, request.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  response->clear();
  char chunk[4096];
  while (response->find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    response->append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response->find('\n') != std::string::npos;
}

/// Renders `values` as a fixed-width ASCII sparkline scaled to its own max.
std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char levels[] = " .:-=+*#";
  const size_t num_levels = sizeof(levels) - 2;  // Index of the densest glyph.
  std::string out(width, ' ');
  if (values.empty()) return out;
  double max = 0.0;
  for (const double v : values) max = std::max(max, v);
  const size_t start = values.size() > width ? values.size() - width : 0;
  const size_t offset = width - (values.size() - start);
  for (size_t i = start; i < values.size(); ++i) {
    const double v = values[i];
    size_t level = 0;
    if (max > 0.0 && v > 0.0) {
      level = 1 + static_cast<size_t>(v / max * static_cast<double>(num_levels - 1));
      level = std::min(level, num_levels);
    }
    out[offset + i - start] = levels[level];
  }
  return out;
}

std::vector<double> Column(const Json& series, const char* name) {
  std::vector<double> out;
  const Json::Array& arr = series[name].AsArray();
  out.reserve(arr.size());
  for (const Json& v : arr) out.push_back(v.AsDouble());
  return out;
}

/// Per-op latency rows decoded from the Prometheus exposition.
struct OpRow {
  double count = 0, p50 = 0, p90 = 0, p99 = 0;
};

std::map<std::string, OpRow> ParseOpTable(const std::string& prom) {
  std::map<std::string, OpRow> ops;
  size_t pos = 0;
  const std::string family = "vadasa_serve_op_latency_ms";
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    const std::string line = prom.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(family, 0) != 0) continue;
    const size_t op_key = line.find("op=\"");
    if (op_key == std::string::npos) continue;
    const size_t op_start = op_key + 4;
    const size_t op_end = line.find('"', op_start);
    const size_t space = line.rfind(' ');
    if (op_end == std::string::npos || space == std::string::npos) continue;
    const std::string op = line.substr(op_start, op_end - op_start);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    OpRow& row = ops[op];
    if (line.find("_count{") != std::string::npos) row.count = value;
    else if (line.find("quantile=\"0.5\"") != std::string::npos) row.p50 = value;
    else if (line.find("quantile=\"0.9\"") != std::string::npos) row.p90 = value;
    else if (line.find("quantile=\"0.99\"") != std::string::npos) row.p99 = value;
  }
  return ops;
}

double Last(const std::vector<double>& values) {
  return values.empty() ? 0.0 : values.back();
}

/// The value of an unlabelled counter/gauge sample in the exposition, or
/// `fallback` when the family is absent.
double PromValue(const std::string& prom, const std::string& family,
                 double fallback) {
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    if (prom.compare(pos, family.size(), family) == 0 &&
        pos + family.size() < eol && prom[pos + family.size()] == ' ') {
      return std::strtod(prom.c_str() + pos + family.size() + 1, nullptr);
    }
    pos = eol + 1;
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vadasa;

  api::FlagParser parser;
  parser.Path("socket",
              "vadasa_serve endpoint: PATH, unix:PATH or tcp:HOST:PORT")
      .Int("interval-ms", "refresh interval", 50, 3600000)
      .Int("frames", "number of refreshes, 0 = until the server exits", 0,
           1 << 30);
  auto flags = parser.Parse(argc, argv, /*first=*/1);
  if (!flags.ok() || !flags->Has("socket") || !flags->positional().empty()) {
    if (!flags.ok()) {
      std::fprintf(stderr, "error: %s\n", flags.status().message().c_str());
    }
    std::fprintf(stderr, "usage: vadasa_top --socket=PATH [options]\noptions:\n%s",
                 parser.Help().c_str());
    return 2;
  }
  const std::string socket_path = flags->GetString("socket", "");
  const int64_t interval_ms = flags->GetInt("interval-ms", 1000);
  const int64_t frames = flags->GetInt("frames", 0);

  for (int64_t frame = 0; frames == 0 || frame < frames; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::string line;
    if (!CallTelemetry(socket_path, &line)) {
      if (frame > 0 && frames == 0) return 0;  // Server went away; clean exit.
      std::fprintf(stderr, "error: cannot reach %s\n", socket_path.c_str());
      return 1;
    }
    auto parsed = Json::Parse(line);
    if (!parsed.ok() || !(*parsed).GetBool("ok", false)) {
      std::fprintf(stderr, "error: bad telemetry response\n");
      return 1;
    }
    const Json& response = *parsed;
    const Json& series = response["series"];
    const std::vector<double> queue = Column(series, "queue_depth");
    const std::vector<double> running = Column(series, "running");
    const std::vector<double> rss = Column(series, "rss_mb");

    if (frames != 1) std::printf("\x1b[2J\x1b[H");
    std::printf("vadasa_top — %s   sampler=%s   samples=%lld\n",
                socket_path.c_str(),
                response.GetBool("sampler_running", false) ? "on" : "off",
                static_cast<long long>(series.GetInt("count", 0)));
    std::printf("  queue   %6.0f  |%s|\n", Last(queue), Sparkline(queue, 48).c_str());
    std::printf("  running %6.0f  |%s|\n", Last(running),
                Sparkline(running, 48).c_str());
    std::printf("  workers %6.0f   rss %.1f MiB\n",
                Last(Column(series, "workers")), Last(rss));
    const std::string prom = response.GetString("prometheus", "");
    // Degraded-mode state (docs/robustness.md): anything non-zero here means
    // the server is shedding or containing faults right now.
    std::printf(
        "  faults  quarantined=%.0f watchdog=%.0f oversized=%.0f "
        "quota_rej=%.0f drain_ms=%.0f\n",
        PromValue(prom, "vadasa_serve_registry_quarantined", 0),
        PromValue(prom, "vadasa_serve_watchdog_flagged", 0),
        PromValue(prom, "vadasa_serve_conn_oversized", 0),
        PromValue(prom, "vadasa_serve_quota_rejected_in_flight", 0) +
            PromValue(prom, "vadasa_serve_quota_rejected_rate", 0),
        PromValue(prom, "vadasa_serve_drain_ms", 0));
    const double cache_hits = PromValue(prom, "vadasa_serve_cache_hits", -1.0);
    if (cache_hits >= 0.0) {
      std::printf(
          "  cache   hits=%.0f misses=%.0f evict=%.0f inval=%.0f "
          "bytes=%.0f\n",
          cache_hits, PromValue(prom, "vadasa_serve_cache_misses", 0),
          PromValue(prom, "vadasa_serve_cache_evictions", 0),
          PromValue(prom, "vadasa_serve_cache_invalidations", 0),
          PromValue(prom, "vadasa_serve_cache_bytes", 0));
    }
    const auto ops = ParseOpTable(prom);
    if (!ops.empty()) {
      std::printf("  %-10s %10s %10s %10s %10s\n", "op", "count", "p50_ms",
                  "p90_ms", "p99_ms");
      for (const auto& [op, row] : ops) {
        std::printf("  %-10s %10.0f %10.3f %10.3f %10.3f\n", op.c_str(),
                    row.count, row.p50, row.p90, row.p99);
      }
    }
    std::fflush(stdout);
  }
  return 0;
}
