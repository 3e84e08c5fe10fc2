#include "client.h"

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

using vadasa::Result;
using vadasa::Status;

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect " + path + ": " + std::strerror(err));
  }
  return fd;
}

bool Reap(pid_t pid, std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  Reap(pid_, std::chrono::seconds(30));
  pid_ = -1;
}

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args,
                            const std::string& socket_path) {
  socket_path_ = socket_path;
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, binary.c_str(), nullptr, nullptr,
                               argv.data(), environ);
  if (rc != 0) {
    return Status::IoError("spawn " + binary + ": " + std::strerror(rc));
  }
  pid_ = pid;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    auto fd = ConnectUnix(socket_path);
    if (fd.ok()) {
      ::close(*fd);
      return Status::OK();
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::IoError("vadasa_serve exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return Status::IoError("vadasa_serve did not accept on " + socket_path);
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  Status status = Status::OK();
  {
    LineClient client;
    status = client.Connect(socket_path_);
    if (status.ok()) status = client.RoundTrip("{\"op\":\"shutdown\"}").status();
  }
  if (status.ok() && Reap(pid_, std::chrono::seconds(30))) {
    pid_ = -1;
    return Status::OK();
  }
  Kill();
  return status.ok() ? Status::IoError("vadasa_serve did not exit") : status;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status LineClient::Connect(const std::string& socket_path) {
  VADASA_ASSIGN_OR_RETURN(fd_, ConnectUnix(socket_path));
  return Status::OK();
}

Status LineClient::Send(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> LineClient::ReadLine() {
  for (;;) {
    // Only the bytes appended since the last search can hold the newline,
    // so a megabyte response arriving in 64 KiB chunks is scanned once.
    const size_t nl = buffer_.find('\n', std::max(start_, scan_));
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(start_, nl - start_);
      start_ = scan_ = nl + 1;
      if (start_ == buffer_.size()) {
        buffer_.clear();
        start_ = scan_ = 0;
      }
      return line;
    }
    scan_ = buffer_.size();
    if (start_ > 0) {
      buffer_.erase(0, start_);
      scan_ -= start_;
      start_ = 0;
    }
    char chunk[1 << 16];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("connection closed by vadasa_serve");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool ResponseOk(const vadasa::Json& response) {
  return response["ok"].AsBool(false) && response["v"].is_number() &&
         response.GetInt("v", 0) == 2;
}

std::string ResultPayload(const vadasa::Json& result) {
  if (result.GetString("state", "") != "done") return "";
  if (result.Has("csv")) {
    return "csv:" + result["csv"].AsString() + "\naudit:" + result["audit"].AsString();
  }
  if (result.Has("risk")) return "risk:" + result["risk"].Dump();
  return "";
}

double PeakRssMb(bool children) {
  rusage usage{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
