#include "sim/des/des_channel.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace teamnet::sim::des {

namespace {

/// Cached registry handles — one name lookup per process, not per message.
struct WireCounters {
  obs::Counter& bytes_sent;
  obs::Counter& msgs_sent;
  obs::Counter& bytes_received;
  obs::Counter& msgs_received;

  static WireCounters& instance() {
    static WireCounters& counters = *new WireCounters{
        obs::MetricsRegistry::instance().counter("net.bytes_sent"),
        obs::MetricsRegistry::instance().counter("net.msgs_sent"),
        obs::MetricsRegistry::instance().counter("net.bytes_received"),
        obs::MetricsRegistry::instance().counter("net.msgs_received"),
    };
    return counters;
  }
};

}  // namespace

DesChannel::DesChannel(Engine& engine, int self, std::shared_ptr<Mailbox> in,
                       std::shared_ptr<Mailbox> out, net::LinkProfile link)
    : engine_(engine),
      self_(self),
      in_(std::move(in)),
      out_(std::move(out)),
      link_(link),
      tx_label_("tx_bytes " + std::to_string(self) + "->" +
                (out_ ? std::to_string(out_->owner()) : std::string("?"))),
      rx_label_("rx_bytes " +
                (out_ ? std::to_string(out_->owner()) : std::string("?")) +
                "->" + std::to_string(self)) {
  TEAMNET_CHECK_MSG(in_ != nullptr && out_ != nullptr,
                    "DesChannel needs both mailboxes");
  TEAMNET_CHECK_MSG(in_->owner() == self_, "inbox must belong to self");
}

void DesChannel::send(std::string bytes) {
  const auto payload = static_cast<std::int64_t>(bytes.size());
  engine_.send(self_, out_, std::move(bytes), link_);
  note_sent(payload);
}

void DesChannel::note_sent(std::int64_t payload) {
  // Wire-level accounting lives here, in the layer that knows the
  // endpoints; decorators above never double-count.
  WireCounters::instance().bytes_sent.add(payload);
  WireCounters::instance().msgs_sent.increment();
  if (obs::Tracer::active()) {
    const auto total =
        tx_bytes_.fetch_add(payload, std::memory_order_relaxed) + payload;
    obs::trace_counter(tx_label_.c_str(), static_cast<double>(total));
  }
}

std::string DesChannel::recv() {
  net::WireTiming timing;
  std::string bytes = engine_.recv(self_, *in_, &timing);
  note_received(timing, bytes.size());
  return bytes;
}

std::optional<std::string> DesChannel::recv_timeout(double seconds) {
  net::WireTiming timing;
  auto bytes = engine_.recv_timeout(self_, *in_, seconds, &timing);
  if (bytes) note_received(timing, bytes->size());
  return bytes;
}

DesChannel& DesChannel::check_legs(std::span<net::Channel* const> channels,
                                   const char* what) {
  TEAMNET_CHECK_MSG(!channels.empty(), what << " needs at least one channel");
  auto* first = dynamic_cast<DesChannel*>(channels[0]);
  for (net::Channel* c : channels) {
    auto* leg = dynamic_cast<DesChannel*>(c);
    TEAMNET_CHECK_MSG(leg != nullptr, what << " takes DES channels only");
    TEAMNET_CHECK_MSG(
        &leg->engine_ == &first->engine_ && leg->self_ == first->self_,
        what << " channels must share one node and engine");
  }
  return *first;
}

void DesChannel::note_received(const net::WireTiming& timing,
                               std::size_t payload) {
  last_timing_ = timing;
  WireCounters::instance().bytes_received.add(
      static_cast<std::int64_t>(payload));
  WireCounters::instance().msgs_received.increment();
  if (obs::Tracer::active()) {
    const auto total = rx_bytes_.fetch_add(static_cast<std::int64_t>(payload),
                                           std::memory_order_relaxed) +
                       static_cast<std::int64_t>(payload);
    obs::trace_counter(rx_label_.c_str(), static_cast<double>(total));
  }
}

void DesChannel::close() {
  engine_.close(*in_);
  engine_.close(*out_);
}

DesGroup::DesGroup(std::span<net::Channel* const> legs) {
  DesChannel::check_legs(legs, "DesGroup");
  for (net::Channel* c : legs) {
    DesChannel& leg = DesChannel::leg(c);
    legs_.push_back(&leg);
    inboxes_.push_back(leg.in_.get());
  }
  outboxes_.resize(legs.size());
}

// analyze:hot  (per-query path: hot-path allocation audit root)
std::optional<std::pair<std::size_t, std::string>> DesGroup::recv_any(
    double until) {
  const DesChannel& first = *legs_[0];
  net::WireTiming timing;
  auto got = first.engine_.recv_any(first.self_, inboxes_, until, &timing);
  if (got) legs_[got->first]->note_received(timing, got->second.size());
  return got;
}

// analyze:hot  (per-query path: hot-path allocation audit root)
std::vector<std::size_t> DesGroup::operator()(
    std::span<net::Channel* const> members, std::string bytes) {
  const DesChannel& first = DesChannel::check_legs(members, "a group send");
  TEAMNET_CHECK_MSG(&first.engine_ == &legs_[0]->engine_ &&
                        first.self_ == legs_[0]->self_ &&
                        members.size() <= outboxes_.size(),
                    "a group send takes at most the group's legs, from its "
                    "node");
  for (std::size_t i = 0; i < members.size(); ++i) {
    outboxes_[i] = DesChannel::leg(members[i]).out_;
  }
  const auto payload = static_cast<std::int64_t>(bytes.size());
  std::vector<std::size_t> closed = first.engine_.send(
      first.self_, std::span(outboxes_.data(), members.size()),
      std::move(bytes), first.link_);
  // Each member that got the frame books it like a unicast send, so the
  // wire counters keep counting payload per leg.
  auto refused = closed.begin();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (refused != closed.end() && *refused == i) {
      ++refused;
      continue;
    }
    DesChannel::leg(members[i]).note_sent(payload);
  }
  return closed;
}

std::pair<net::ChannelPtr, net::ChannelPtr> make_des_pair(
    Engine& engine, int a, int b, const net::LinkProfile& link) {
  auto to_a = engine.make_mailbox(a);
  auto to_b = engine.make_mailbox(b);
  auto chan_a = std::make_unique<DesChannel>(engine, a, to_a, to_b, link);
  auto chan_b = std::make_unique<DesChannel>(engine, b, to_b, to_a, link);
  return {std::move(chan_a), std::move(chan_b)};
}

std::vector<std::vector<net::ChannelPtr>> make_des_mesh(
    Engine& engine, int n, const net::LinkProfile& link) {
  TEAMNET_CHECK_MSG(n >= 1 && n <= engine.num_nodes(),
                    "mesh larger than engine");
  std::vector<std::vector<net::ChannelPtr>> mesh(static_cast<std::size_t>(n));
  for (auto& row : mesh) row.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      auto [ci, cj] = make_des_pair(engine, i, j, link);
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          std::move(ci);
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          std::move(cj);
    }
  }
  return mesh;
}

}  // namespace teamnet::sim::des
