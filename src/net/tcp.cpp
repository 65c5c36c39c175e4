#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"

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

using Clock = std::chrono::steady_clock;

/// The thread and core of the latest TcpChannel::send in this process. A
/// peer in another process never marks it.
CoreMark g_latest_send;

/// Set once two threads of this process have sent over TCP, as when a
/// master and a worker share it (`edge_node demo`, perfbench's tcp_cnn_k2):
/// a reply can then come from a thread computing beside the reader. A
/// process at one end of its links only, like `edge_node master` or
/// `edge_node worker` on its own, never sets it.
std::atomic<bool> g_two_senders{false};

/// Whether reads poll before they sleep: only with a peer thread in this
/// process, and a second usable core for it to run on.
bool spin_reads() {
  static const bool spare_core = usable_cores() > 1;
  return spare_core && g_two_senders.load(std::memory_order_relaxed);
}

/// One look that does not sleep: true when `fd` is readable (a frame, EOF
/// or an error).
bool readable_now(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, 0);
  if (ready >= 0) return ready > 0;
  const int err = errno;
  if (err != EINTR) throw_errno("poll", err);
  return false;
}

/// ppoll(2) until `fd` is readable or `until` passes (never, at
/// Clock::time_point::max()); false on timeout. Restarts after a signal
/// with the time that is left.
bool sleep_until_readable(int fd, Clock::time_point until) {
  for (;;) {
    timespec ts{};
    const timespec* timeout = nullptr;
    if (until != Clock::time_point::max()) {
      const auto left = until - Clock::now();
      if (left <= Clock::duration::zero()) return false;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
      ts = {static_cast<time_t>(ns / 1'000'000'000),
            static_cast<long>(ns % 1'000'000'000)};
      timeout = &ts;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, timeout, nullptr);
    if (ready > 0) return true;
    if (ready == 0) return false;
    const int err = errno;
    if (err != EINTR) throw_errno("poll", err);
  }
}

/// Waits until `fd` is readable or `until` passes; false on timeout. Where
/// spin_reads() holds it first polls without sleeping for kSpinWindow (or
/// what is left of the budget, if less), so a reply that comes within
/// microseconds costs no wake-up. A reader that slept and is woken onto the
/// core of another thread's latest send steps off it: a sync wake-up puts a
/// loopback reader on its sender's core, where the two would otherwise
/// take turns.
bool wait_readable(int fd, Clock::time_point until) {
  if (spin_reads() && spin_until([fd] { return readable_now(fd); }, [] {},
                                 until - Clock::now())) {
    return true;
  }
  if (!sleep_until_readable(fd, until)) return false;
  g_latest_send.step_off_if_on();
  return true;
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

  /// Reads one whole frame, blocking until all of it is in.
  std::string read_frame() {
    char header[8];
    recv_all(fd_, header, sizeof(header));
    return recv_body(header);
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

  void send(std::string bytes) override {
    if (!g_two_senders.load(std::memory_order_relaxed) &&
        g_latest_send.marked_by_other()) {
      g_two_senders.store(true, std::memory_order_relaxed);
    }
    // Marked before the write, so a reader this send wakes sees the mark.
    g_latest_send.mark();
    send_frame(fd_, bytes);
  }

  std::string recv() override {
    // Without the spin, the read sleeps in recv(2) itself.
    if (spin_reads()) wait_readable(fd_, Clock::time_point::max());
    return read_frame();
  }

  std::optional<std::string> recv_timeout(double seconds) override {
    // Wait for the frame header only; once it arrives the body is assumed
    // to follow promptly (send_frame writes a frame with one syscall). A
    // budget <= 0 is a poll: one non-blocking peek.
    if (seconds > 0.0) {
      const auto budget = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds));
      if (!wait_readable(fd_, Clock::now() + budget)) return std::nullopt;
    }
    char header[8];
    const ssize_t n =
        ::recv(fd_, header, sizeof(header), MSG_PEEK | MSG_DONTWAIT);
    if (n < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return std::nullopt;
      throw_errno("recv", err);
    }
    if (n == 0) throw NetworkError("peer closed connection");
    return read_frame();
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
