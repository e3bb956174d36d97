#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "server/protocol.hpp"
#include "util/input.hpp"
#include "util/strings.hpp"

namespace mgba::server {

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      if (pos < text.size()) lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

}  // namespace

TimingServer::TimingServer(std::string socket_path, ServerOptions options)
    : socket_path_(std::move(socket_path)), manager_(std::move(options)) {}

TimingServer::~TimingServer() {
  request_stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  for (const int fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

std::string TimingServer::start() {
  if (::pipe(stop_pipe_) != 0) {
    return str_format("pipe failed: %s", std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return str_format("socket path too long (%zu bytes, cap %zu)",
                      socket_path_.size(), sizeof(addr.sun_path) - 1);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return str_format("socket failed: %s", std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // a stale socket from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return str_format("bind %s failed: %s", socket_path_.c_str(),
                      std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return str_format("listen failed: %s", std::strerror(errno));
  }
  return "";
}

void TimingServer::request_stop() {
  if (stopping_.exchange(true)) return;
  if (stop_pipe_[1] >= 0) {
    const char b = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &b, 1);
  }
}

int TimingServer::run() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load()) break;
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
      }
    }
    manager_.evict_idle();
  }

  // Drain: stop accepting, half-close every connection so its in-flight
  // request still gets a response, then wait for the threads and flush.
  stopping_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(socket_path_.c_str());
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  conn_threads_.clear();
  manager_.shutdown();
  return 0;
}

void TimingServer::connection_loop(int fd) {
  std::shared_ptr<ServerSession> session;
  std::string payload;
  std::string error;

  const auto cleanup = [&] {
    if (session != nullptr) session->detach();
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                      conn_fds_.end());
    }
    ::close(fd);
  };

  // Versioned handshake.
  if (read_frame(fd, payload, error) != 1) {
    if (!error.empty()) write_frame(fd, "error " + error);
    cleanup();
    return;
  }
  const std::vector<std::string> hs = tokenize_line(payload).tokens;
  if (hs.size() < 3 || hs[0] != kMagic ||
      hs[1] != std::to_string(kProtocolVersion)) {
    write_frame(fd, str_format("error unsupported protocol (want %s %u)",
                               kMagic, kProtocolVersion));
    cleanup();
    return;
  }
  std::string mgr_error;
  if (hs[2] == "new" && hs.size() == 3) {
    session = manager_.create(mgr_error);
  } else if ((hs[2] == "attach" || hs[2] == "recover") && hs.size() == 4) {
    const auto id = parse_count(hs[3]);
    if (!id) {
      mgr_error = "bad session id '" + hs[3] + "'";
    } else if (hs[2] == "attach") {
      session = manager_.attach(*id, mgr_error);
    } else {
      session = manager_.recover(*id, mgr_error);
    }
  } else {
    mgr_error = "bad handshake mode";
  }
  if (session == nullptr) {
    write_frame(fd, "error " + mgr_error);
    cleanup();
    return;
  }
  if (!write_frame(fd, str_format("ok %u session %llu", kProtocolVersion,
                                  static_cast<unsigned long long>(
                                      session->id())))
           .empty()) {
    cleanup();
    return;
  }

  // Request loop.
  while (true) {
    const int rc = read_frame(fd, payload, error);
    if (rc == 0) break;  // clean EOF (or SHUT_RD during graceful shutdown)
    if (rc < 0) {
      // Truncated/oversized/garbage frame: answer with a protocol error
      // and drop the connection — the stream is no longer in sync.
      write_frame(fd, "error " + error);
      break;
    }
    if (payload == "batch" || payload.rfind("batch\n", 0) == 0) {
      const std::vector<std::string> lines =
          payload.size() > 6 ? split_lines(payload.substr(6))
                             : std::vector<std::string>{};
      const std::vector<shell::CommandResult> results =
          session->execute(lines);
      std::vector<WireResult> wire;
      wire.reserve(results.size());
      bool stop = false;
      for (const shell::CommandResult& r : results) {
        wire.push_back(WireResult{static_cast<int>(r.status), r.output,
                                  r.error});
        stop = stop || r.stop;
      }
      if (!write_frame(fd, encode_results(wire)).empty()) break;
      if (stop) break;  // the batch ran exit/quit
    } else if (payload == "ping") {
      if (!write_frame(fd, "ok").empty()) break;
    } else if (payload == "sessions") {
      std::string reply = "ok sessions";
      for (const std::uint64_t id : manager_.ids()) {
        reply += str_format(" %llu", static_cast<unsigned long long>(id));
      }
      if (!write_frame(fd, reply).empty()) break;
    } else if (payload == "detach") {
      session->detach();
      session = nullptr;
      write_frame(fd, "ok");
      break;
    } else if (payload == "bye") {
      write_frame(fd, "ok");
      break;
    } else {
      const std::vector<std::string> toks = tokenize_line(payload).tokens;
      if (!write_frame(fd, "error unknown request '" +
                               (toks.empty() ? std::string() : toks[0]) + "'")
               .empty()) {
        break;
      }
    }
  }
  cleanup();
}

}  // namespace mgba::server
