#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace teamnet::net {

namespace {

// errno discipline (tools/analyze.py rule `errno-capture`): every syscall
// failure path saves errno into a local before doing anything else — string
// building, close(), setsockopt() and even allocation may clobber it.
[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw NetworkError(what + ": " + std::strerror(err));
}

/// Writes the 8-byte length header and the body with one sendmsg, so under
/// TCP_NODELAY a small frame leaves as one segment and the peer never wakes
/// on a bare header. A partial write resumes where the kernel stopped.
void send_frame(int fd, const std::string& body) {
  const std::uint64_t len = body.size();
  char header[8];
  std::memcpy(header, &len, sizeof(len));
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      const int err = errno;
      throw_errno("send", err);
    }
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
}

void recv_all(int fd, char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n == 0) throw NetworkError("peer closed connection");
    if (n < 0) {
      const int err = errno;
      throw_errno("recv", err);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// ppoll(2) until `fd` is readable (a frame, EOF or an error) or `seconds`
/// pass; false on timeout. Restarts after a signal with the time that is
/// left.
bool wait_readable(int fd, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    const auto left = until - std::chrono::steady_clock::now();
    if (left <= std::chrono::nanoseconds::zero()) return false;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready > 0) return true;
    if (ready == 0) return false;
    const int err = errno;
    if (err != EINTR) throw_errno("poll", err);
  }
}

/// Length-prefixed framing over a connected socket.
class TcpChannel final : public Channel {
  std::string recv_body(const char header[8]) {
    std::uint64_t len = 0;
    std::memcpy(&len, header, sizeof(len));
    if (len > (1ull << 32)) throw NetworkError("implausible frame length");
    std::string bytes(len, '\0');
    recv_all(fd_, bytes.data(), bytes.size());
    return bytes;
  }

 public:
  explicit TcpChannel(int fd) : fd_(fd) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TcpChannel() override {
    if (fd_ >= 0) ::close(fd_);
  }

  void close() override {
    // shutdown() rather than ::close() so the fd stays valid (no double
    // close / fd reuse race) while any blocked recv fails with "peer
    // closed connection"; the destructor still releases the fd.
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void send(std::string bytes) override { send_frame(fd_, bytes); }

  std::string recv() override {
    char header[8];
    recv_all(fd_, header, sizeof(header));
    return recv_body(header);
  }

  std::optional<std::string> recv_timeout(double seconds) override {
    // Wait for the frame header only; once it arrives the body is assumed
    // to follow promptly (send_frame writes a frame with one syscall). A
    // budget <= 0 is a poll: one non-blocking peek.
    if (seconds > 0.0 && !wait_readable(fd_, seconds)) return std::nullopt;
    char header[8];
    const ssize_t n =
        ::recv(fd_, header, sizeof(header), MSG_PEEK | MSG_DONTWAIT);
    if (n < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return std::nullopt;
      throw_errno("recv", err);
    }
    if (n == 0) throw NetworkError("peer closed connection");
    return recv();
  }

 private:
  int fd_;
};

}  // namespace

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    const int err = errno;
    throw_errno("socket", err);
  }
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;  // close() below would overwrite it
    ::close(fd_);
    throw_errno("bind", err);
  }
  if (::listen(fd_, 16) != 0) {
    const int err = errno;
    ::close(fd_);
    throw_errno("listen", err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const int err = errno;
    ::close(fd_);
    throw_errno("getsockname", err);
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

ChannelPtr TcpListener::accept() {
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    const int err = errno;
    throw_errno("accept", err);
  }
  return std::make_unique<TcpChannel>(client);
}

ChannelPtr tcp_connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetworkError("bad address: " + host);
  }

  // Retry with exponential backoff + jitter: workers often dial before the
  // master's listener is up, and a fixed cadence makes a rejoining fleet
  // hammer the listener in lockstep. Deterministically seeded from the
  // target address so tests remain reproducible.
  constexpr double kBackoffBudgetS = 3.0;
  constexpr int kBaseDelayMs = 5;
  constexpr int kMaxDelayMs = 320;
  Rng jitter(0x7c9ULL * port + 0xdeadULL * addr.sin_addr.s_addr);
  int delay_ms = kBaseDelayMs;
  const auto give_up_at = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(kBackoffBudgetS));
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      const int err = errno;
      throw_errno("socket", err);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return std::make_unique<TcpChannel>(fd);
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= give_up_at) break;
    // Full jitter: sleep uniform in [delay/2, delay], then double the cap.
    const int sleep_ms = jitter.randint(delay_ms / 2, delay_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    delay_ms = std::min(delay_ms * 2, kMaxDelayMs);
  }
  throw NetworkError("connect to " + host + ":" + std::to_string(port) +
                     " failed after retries");
}

}  // namespace teamnet::net
