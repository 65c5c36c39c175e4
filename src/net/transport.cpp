#include "net/transport.hpp"

#include <chrono>
#include <deque>
#include <thread>

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace teamnet::net {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Channel::sleep(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

namespace {

/// One direction of an in-process pipe. Closing wakes blocked readers;
/// already-queued messages stay readable until drained.
///
/// Lock hierarchy: `mutex` is a leaf lock guarding `messages` + `closed`;
/// notify calls sit outside the critical section (the woken waiter must
/// reacquire the lock anyway, so this only avoids a pointless contention
/// bounce, it does not change visibility).
struct ByteQueue {
  Mutex mutex;
  CondVar cv;
  std::deque<std::string> messages TN_GUARDED_BY(mutex);
  bool closed TN_GUARDED_BY(mutex) = false;

  void push(std::string bytes) {
    {
      MutexLock lock(mutex);
      if (closed) throw NetworkError("channel closed");
      messages.push_back(std::move(bytes));
    }
    cv.notify_one();
  }

  void close() {
    {
      MutexLock lock(mutex);
      closed = true;
    }
    cv.notify_all();
  }

  std::string pop() {
    MutexLock lock(mutex);
    while (!closed && messages.empty()) cv.wait(mutex);
    return take_front_locked();
  }

  std::optional<std::string> pop_timeout(double seconds) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(seconds));
    MutexLock lock(mutex);
    while (!closed && messages.empty()) {
      if (!cv.wait_until(mutex, deadline)) {
        // Deadline passed; one final predicate check below decides between
        // "timed out empty" and "message/close raced the timeout".
        if (!closed && messages.empty()) return std::nullopt;
        break;
      }
    }
    return take_front_locked();
  }

 private:
  /// Precondition (enforced at both call sites under the lock): the wait
  /// loop exited, so either a message is queued or the queue is closed.
  std::string take_front_locked() TN_REQUIRES(mutex) {
    if (messages.empty()) throw NetworkError("channel closed");
    std::string bytes = std::move(messages.front());
    messages.pop_front();
    return bytes;
  }
};

class InProcChannel final : public Channel {
 public:
  InProcChannel(std::shared_ptr<ByteQueue> out, std::shared_ptr<ByteQueue> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  void send(std::string bytes) override { out_->push(std::move(bytes)); }
  std::string recv() override { return in_->pop(); }
  std::optional<std::string> recv_timeout(double seconds) override {
    return in_->pop_timeout(seconds);
  }
  void close() override {
    out_->close();
    in_->close();
  }

 private:
  std::shared_ptr<ByteQueue> out_;
  std::shared_ptr<ByteQueue> in_;
};

}  // namespace

std::pair<ChannelPtr, ChannelPtr> make_inproc_pair() {
  auto a_to_b = std::make_shared<ByteQueue>();
  auto b_to_a = std::make_shared<ByteQueue>();
  return {std::make_unique<InProcChannel>(a_to_b, b_to_a),
          std::make_unique<InProcChannel>(b_to_a, a_to_b)};
}

}  // namespace teamnet::net
