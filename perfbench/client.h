#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace perfbench {

/// A spawned vadasa_serve process. The destructor kills and reaps a server
/// that was not stopped cleanly, so no run leaves one behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `args` and waits until `socket_path` accepts.
  vadasa::Status Start(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& socket_path);

  /// Sends {"op":"shutdown"} and reaps the process (kills it after 30 s).
  vadasa::Status Stop();

  pid_t pid() const { return pid_; }

 private:
  void Kill();
  pid_t pid_ = -1;
  std::string socket_path_;
};

/// One NDJSON connection: request line out, response line back.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  vadasa::Status Connect(const std::string& socket_path);
  vadasa::Status Send(const std::string& line);
  /// The next response line, without its newline.
  vadasa::Result<std::string> ReadLine();
  vadasa::Result<std::string> RoundTrip(const std::string& line) {
    VADASA_RETURN_NOT_OK(Send(line));
    return ReadLine();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t start_ = 0;  ///< First byte of the next line in buffer_.
  size_t scan_ = 0;   ///< buffer_[start_, scan_) holds no newline.
};

/// Whether a response is a protocol-v2 success: "ok":true and "v":2.
bool ResponseOk(const vadasa::Json& response);

/// The payload of a done `result` response, stripped of per-request fields
/// (ids, trace ids, timings, the cached flag): the exact bytes of "csv" and
/// "audit" for an anonymize job, the serialized "risk" object for a risk job.
/// Empty when the response is not a done result.
std::string ResultPayload(const vadasa::Json& result);

/// Process peak resident set (getrusage), MiB: of this process, or of the
/// largest reaped child.
double PeakRssMb(bool children);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
