// Transport / protocol tests: framing, in-proc channels, real TCP over
// loopback, and the Figure-1 collaborative protocol (including equivalence
// with the in-process TeamNetEnsemble). The simulated link math lives with
// the engine that owns it, in des_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/teamnet.hpp"
#include "data/blobs.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/collab.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "nn/mlp.hpp"

namespace teamnet {
namespace {

TEST(Message, EncodeDecodeRoundTrip) {
  Rng rng(1);
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.ints = {42, -7};
  msg.tensors = {Tensor::randn({2, 3}, rng), Tensor::randn({4}, rng)};
  const std::string bytes = msg.encode();
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), msg.encoded_size());

  net::Message back = net::Message::decode(bytes);
  EXPECT_EQ(back.type, net::MsgType::Infer);
  EXPECT_EQ(back.ints, msg.ints);
  ASSERT_EQ(back.tensors.size(), 2u);
  EXPECT_TRUE(back.tensors[0].allclose(msg.tensors[0]));
  EXPECT_TRUE(back.tensors[1].allclose(msg.tensors[1]));
}

TEST(Message, DecodeRejectsTruncated) {
  net::Message msg;
  msg.tensors = {Tensor::ones({8})};
  std::string bytes = msg.encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(net::Message::decode(bytes), SerializationError);
}

/// Whether `a` and `b` have one shape and the same bits in every element.
bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return a.numel() == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// `shape` filled by cycling through `values`.
Tensor cycled(const Shape& shape, const std::vector<float>& values) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = values[static_cast<std::size_t>(i) % values.size()];
  }
  return t;
}

/// Lower-case hex of `bytes`, for pinned frames.
std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(Message, BothCodingsRoundTripEveryBitPattern) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {
      0.0f,
      -0.0f,
      std::bit_cast<float>(0x7fc00001u),  // quiet NaN with a payload
      std::bit_cast<float>(0xffa00005u),  // negative signalling NaN payload
      inf,
      -inf,
      std::bit_cast<float>(0x00000001u),  // smallest denormal
      std::bit_cast<float>(0x807fffffu),  // largest negative denormal
      1.0f,
      0.0f,
      0.0f};
  std::vector<float> no_zero;
  for (const float v : specials) {
    if (std::bit_cast<std::uint32_t>(v) != 0) no_zero.push_back(v);
  }
  // Ranks 0-4; every element count but the scalar's is not a multiple of 8.
  for (const Shape& shape : {Shape{}, Shape{11}, Shape{3, 5}, Shape{2, 3, 7},
                             Shape{1, 2, 3, 5}}) {
    for (const auto& fill : {specials, no_zero, std::vector<float>{0.0f}}) {
      net::Message msg;
      msg.type = net::MsgType::Infer;
      msg.ints = {3};
      msg.tensors = {cycled(shape, fill), cycled({2, 2}, {-0.0f})};
      for (const auto coding :
           {net::TensorCoding::dense, net::TensorCoding::compact}) {
        const std::string bytes = msg.encode(coding);
        EXPECT_EQ(static_cast<std::int64_t>(bytes.size()),
                  msg.encoded_size(coding));
        const net::Message back = net::Message::decode(bytes);
        EXPECT_EQ(back.ints, msg.ints);
        ASSERT_EQ(back.tensors.size(), 2u);
        EXPECT_TRUE(same_bits(back.tensors[0], msg.tensors[0]))
            << shape_to_string(shape);
        EXPECT_TRUE(same_bits(back.tensors[1], msg.tensors[1]));
      }
    }
  }
}

TEST(Message, CompactOnlyWhenStrictlySmaller) {
  // 24 floats with 24 distinct top bytes (2^-24, 2^-22, ..., 2^22), so no
  // palette fits: the bitmap and the palette size byte take 3 + 1 B, one
  // +0.0 saves exactly that (a tie, which stays dense) and two save 4 B.
  const auto frame = [](int zeros, net::TensorCoding coding) {
    std::vector<float> values(24);
    for (int i = 0; i < 24; ++i) {
      values[static_cast<std::size_t>(i)] = std::ldexp(1.0f, 2 * i - 24);
    }
    // 7 is coprime with 24, so the zeros land on distinct elements.
    for (int i = 0; i < zeros; ++i) {
      values[static_cast<std::size_t>(7 * i % 24)] = 0.0f;
    }
    net::Message msg;
    msg.tensors = {Tensor({24}, values)};
    EXPECT_EQ(static_cast<std::int64_t>(msg.encode(coding).size()),
              msg.encoded_size(coding));
    return msg.encode(coding);
  };
  // The rank word follows type and the two counts; its top bit flags the
  // compact form.
  const auto compact = [](const std::string& bytes) {
    return (static_cast<unsigned char>(bytes.at(15)) & 0x80) != 0;
  };
  const std::string dense = frame(1, net::TensorCoding::dense);
  EXPECT_FALSE(compact(dense));
  EXPECT_EQ(frame(1, net::TensorCoding::compact), dense);
  const std::string two = frame(2, net::TensorCoding::compact);
  EXPECT_TRUE(compact(two));
  EXPECT_EQ(two.size() + 4, dense.size());
  EXPECT_FALSE(compact(frame(2, net::TensorCoding::dense)));
  EXPECT_TRUE(compact(frame(24, net::TensorCoding::compact)));
  EXPECT_FALSE(compact(frame(0, net::TensorCoding::compact)));

  // The palette only when strictly smaller than raw floats: one kept float
  // costs a palette byte and three low bytes, a tie that stays raw (p = 0);
  // two sharing a top byte take 1 + 6 B against 8.
  net::Message sparse;
  sparse.tensors = {Tensor({16})};
  sparse.tensors[0][3] = 1.5f;
  // The palette size byte follows the dims and the 2-byte bitmap.
  constexpr std::size_t kPaletteSizeAt = 16 + 8 + 2;
  const std::string one = sparse.encode(net::TensorCoding::compact);
  EXPECT_EQ(one.at(kPaletteSizeAt), 0);
  EXPECT_EQ(one.size(), kPaletteSizeAt + 1 + 4);
  sparse.tensors[0][9] = 1.25f;
  const std::string shared = sparse.encode(net::TensorCoding::compact);
  EXPECT_EQ(shared.at(kPaletteSizeAt), 1);
  EXPECT_EQ(shared.size(), kPaletteSizeAt + 1 + 1 + 6);
  EXPECT_EQ(static_cast<std::int64_t>(shared.size()),
            sparse.encoded_size(net::TensorCoding::compact));
  EXPECT_TRUE(same_bits(net::Message::decode(shared).tensors.at(0),
                        sparse.tensors[0]));
}

TEST(Message, WireBytesArePinned) {
  // The paper wire: a hedged Infer and its Result in the raw-float coding.
  net::Message infer;
  infer.type = net::MsgType::Infer;
  net::set_infer_info(infer, {7, 1'000'000, true});
  infer.tensors = {Tensor({1, 3}, {1.0f, 0.0f, -2.5f})};
  EXPECT_EQ(hex(infer.encode()),
            "0100000003000000070000000000000040420f00000000000100000000000000"
            "0100000002000000010000000000000003000000000000000000803f00000000"
            "000020c0");
  net::Message result;
  result.type = net::MsgType::Result;
  result.ints = infer.ints;
  result.tensors = {Tensor({1, 2}, {0.25f, 0.75f}), Tensor({1}, {0.5f})};
  EXPECT_EQ(hex(result.encode()),
            "0200000003000000070000000000000040420f00000000000100000000000000"
            "0200000002000000010000000000000002000000000000000000803e0000403f"
            "0100000001000000000000000000003f");
  // The airtime-first wire's Infer: flagged rank, bitmap 0b101, palette
  // size 0 (two kept floats: a palette would take 9 B against 8), the two
  // kept floats. Results never go compact, so theirs is the line above.
  EXPECT_EQ(hex(infer.encode(net::TensorCoding::compact)),
            "0100000003000000070000000000000040420f00000000000100000000000000"
            "01000000020000800100000000000000030000000000000005000000803f0000"
            "20c0");
  // A palette Infer: bitmap 0b11101101, palette size 3, top bytes 3f 40
  // c0, the six 2-bit indices 0 0 2 0 1 0 in two bytes, then each kept
  // float's low three bytes.
  infer.tensors = {
      Tensor({1, 8}, {1.0f, 0.0f, 1.5f, -2.5f, 0.0f, 1.25f, 3.0f, 1.75f})};
  EXPECT_EQ(hex(infer.encode(net::TensorCoding::compact)),
            "0100000003000000070000000000000040420f00000000000100000000000000"
            "010000000200008001000000000000000800000000000000ed033f40c0200100"
            "00800000c00000200000a00000400000e0");
}

/// FNV-1a of `bytes`, continuing from `h`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

/// The compact Infer frame of `x` for query `qid`, after checking that it
/// decodes to `x` bit for bit and that encoded_size counts it.
std::string compact_infer(const Tensor& x, std::int64_t qid) {
  net::Message msg;
  msg.type = net::MsgType::Infer;
  net::set_infer_info(msg, {qid, net::kNoDeadlineUs, false});
  msg.tensors = {x};
  std::string bytes = msg.encode(net::TensorCoding::compact);
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()),
            msg.encoded_size(net::TensorCoding::compact));
  EXPECT_TRUE(same_bits(net::Message::decode(bytes).tensors.at(0), x));
  return bytes;
}

/// Digest and total size of the compact Infers of every row of `images`.
std::pair<std::uint64_t, std::int64_t> infer_digest(const Tensor& images) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::int64_t bytes = 0;
  for (std::int64_t r = 0; r < images.dim(0); ++r) {
    const std::string frame = compact_infer(images.slice_rows(r, r + 1), r);
    h = fnv1a(frame, h);
    bytes += static_cast<std::int64_t>(frame.size());
  }
  return {h, bytes};
}

TEST(Message, CompactInferFramesOfTheQuickTestRowsArePinned) {
  // The frames the fleet wire and tcp_cnn_k2 carry: every test row of the
  // quick-mode benches' MNIST (1,200 samples, seed 11) and CIFAR (800,
  // 16x16, seed 13) sets, as compact Infers, byte for byte.
  data::MnistConfig mc;
  mc.num_samples = 1200;
  mc.seed = 11;
  const auto mnist = data::make_synthetic_mnist(
      mc, 0, data::split_row(mc.num_samples, 0.2));
  EXPECT_EQ(infer_digest(mnist.images),
            std::make_pair(std::uint64_t{15782570028767700623ull},
                           std::int64_t{467916}));
  data::CifarConfig cc;
  cc.num_samples = 800;
  cc.image_size = 16;
  cc.seed = 13;
  const auto cifar = data::make_synthetic_cifar(
      cc, 0, data::split_row(cc.num_samples, 0.2));
  EXPECT_EQ(infer_digest(cifar.images),
            std::make_pair(std::uint64_t{8805061318754656156ull},
                           std::int64_t{427730}));
}

TEST(Message, CompactFrameEdgeCasesArePinned) {
  // 197 elements: neither a whole bitmap byte nor a whole bitmap word.
  // Every third one is +0.0, so each case goes compact; the palette size
  // byte follows the header, the dims and the 25-byte bitmap.
  constexpr std::int64_t kN = 197;
  constexpr std::size_t kPaletteSizeAt = 40 + 8 + 25;
  const auto with_zeros = [](const std::vector<float>& kept) {
    Tensor t({kN});
    for (std::int64_t i = 0; i < kN; ++i) {
      if (i % 3 != 0) t[i] = kept[static_cast<std::size_t>(i) % kept.size()];
    }
    return t;
  };
  // Kept values spanning `tops` top bytes (sign and high exponent bits).
  const auto spread = [](int tops) {
    std::vector<float> kept;
    for (int i = 0; i < 29; ++i) {
      const int top = i % tops;
      const float v = std::ldexp(1.0f + static_cast<float>(i) / 64.0f,
                                 2 * (top / 2) - 8);
      kept.push_back(top % 2 == 0 ? v : -v);
    }
    return kept;
  };
  const std::vector<float> specials = {
      -0.0f,
      std::bit_cast<float>(0x7fc00001u),  // quiet NaN with a payload
      std::bit_cast<float>(0xffa00005u),  // negative signalling NaN
      std::bit_cast<float>(0x00000001u),  // smallest denormal
      std::bit_cast<float>(0x807fffffu),  // largest negative denormal
      std::numeric_limits<float>::infinity(),
      1.0f};
  struct Case {
    const char* name;
    Tensor x;
    int p;  // the palette size byte
    std::uint64_t digest;
    std::size_t bytes;
  };
  const Case cases[] = {
      {"p=1", with_zeros(spread(1)), 1, 1221064983838106547ull, 468},
      {"p=16", with_zeros(spread(16)), 16, 13630033889978282173ull, 549},
      {"17 top bytes", with_zeros(spread(17)), 0, 766063057041320455ull, 598},
      {"specials", with_zeros(specials), 5, 1601072190865459036ull, 522},
      {"all zeros", Tensor({kN}), 0, 12470702039666603127ull, 74},
  };
  for (const Case& c : cases) {
    const std::string frame = compact_infer(c.x, 5);
    EXPECT_EQ(static_cast<int>(frame.at(kPaletteSizeAt)), c.p) << c.name;
    EXPECT_EQ(fnv1a(frame), c.digest) << c.name;
    EXPECT_EQ(frame.size(), c.bytes) << c.name;
  }
  // One kept element in a 2-byte bitmap, and in a 2-word one.
  const std::pair<std::int64_t, std::uint64_t> sparse[] = {
      {9, 4275226290662705412ull}, {65, 8043241534642383580ull}};
  for (const auto& [n, digest] : sparse) {
    Tensor t({n});
    t[n - 1] = -1.5f;
    EXPECT_EQ(fnv1a(compact_infer(t, 6)), digest) << n;
  }
}

/// `x`'s compact frame and its decode, through the walks this thread runs.
std::pair<std::string, Tensor> compact_round_trip(const Tensor& x) {
  net::Message msg;
  msg.type = net::MsgType::Infer;
  msg.tensors = {x};
  std::string bytes = msg.encode(net::TensorCoding::compact);
  Tensor back = net::Message::decode(bytes).tensors.at(0);
  return {std::move(bytes), std::move(back)};
}

TEST(Message, PortableWalksCodeLikeTheWideOnes) {
  // The AVX2 + BMI2 walks (where the CPU runs them) and the portable ones
  // must write the same frame and read it back bit for bit: the quick test
  // rows, and seeded tensors of every length up to 200 (so every tail past
  // 4, 16 and 64 elements), zero shares from none to all, and 1 to 17 top
  // bytes per tensor (17: no palette).
  std::vector<Tensor> inputs;
  data::MnistConfig mc;
  mc.num_samples = 1200;
  mc.seed = 11;
  const auto mnist = data::make_synthetic_mnist(mc, 0, 40);
  data::CifarConfig cc;
  cc.num_samples = 800;
  cc.image_size = 16;
  cc.seed = 13;
  const auto cifar = data::make_synthetic_cifar(cc, 0, 40);
  for (std::int64_t r = 0; r < 40; ++r) {
    inputs.push_back(mnist.images.slice_rows(r, r + 1));
    inputs.push_back(cifar.images.slice_rows(r, r + 1));
  }
  Rng rng(47);
  for (std::int64_t n = 1; n <= 200; ++n) {
    const int tops = 1 + static_cast<int>(n % 17);
    const double zeros = static_cast<double>(n % 5) / 4.0;
    Tensor t({n});
    for (std::int64_t i = 0; i < n; ++i) {
      if (rng.uniform() < zeros) continue;
      const int top = static_cast<int>(rng.uniform() * tops);
      const float v = std::ldexp(1.0f + static_cast<float>(rng.uniform()),
                                 2 * (top / 2) - 8);
      t[i] = top % 2 == 0 ? v : -v;
    }
    inputs.push_back(t);
  }
  for (const Tensor& x : inputs) {
    const auto [wide, wide_back] = compact_round_trip(x);
    net::detail::PortableCompactWalks portable;
    const auto [bytes, back] = compact_round_trip(x);
    EXPECT_EQ(bytes, wide) << shape_to_string(x.shape());
    EXPECT_TRUE(same_bits(back, x)) << shape_to_string(x.shape());
    EXPECT_TRUE(same_bits(wide_back, x)) << shape_to_string(x.shape());
  }
}

TEST(Message, BothWalksRejectAnIndexPastThePalette) {
  // 40 kept floats in 3 top bytes: 2-bit indices, so a field can hold 3.
  // The run starts after the header, the dims, the 5-byte bitmap, the
  // palette size and the palette. Setting the first or the last index to
  // 3 must throw in either walk: the first sits in a 16-element step of
  // the wide walk, the last in its element-by-element tail.
  Tensor x({40});
  for (std::int64_t i = 0; i < 40; ++i) {
    x[i] = std::ldexp(1.5f, static_cast<int>(i % 3) * 2);
  }
  const std::string frame = compact_round_trip(x).first;
  constexpr std::size_t kRunAt = 12 + 4 + 8 + 5 + 1 + 3;
  ASSERT_EQ(static_cast<int>(frame.at(kRunAt - 4)), 3);
  std::string first = frame;
  first[kRunAt] = static_cast<char>(first[kRunAt] | 0x03);
  std::string last = frame;
  last[kRunAt + 9] = static_cast<char>(last[kRunAt + 9] | 0xc0);
  for (const bool portable : {false, true}) {
    std::optional<net::detail::PortableCompactWalks> walks;
    if (portable) walks.emplace();
    EXPECT_THROW(net::Message::decode(first), SerializationError) << portable;
    EXPECT_THROW(net::Message::decode(last), SerializationError) << portable;
    EXPECT_NO_THROW(net::Message::decode(frame)) << portable;
  }
}

TEST(InProc, PairDeliversBothDirections) {
  auto [a, b] = net::make_inproc_pair();
  a->send("hello");
  b->send("world");
  EXPECT_EQ(b->recv(), "hello");
  EXPECT_EQ(a->recv(), "world");
}

TEST(InProc, PreservesOrderAcrossThreads) {
  auto [a, b] = net::make_inproc_pair();
  std::thread producer([&a] {
    for (int i = 0; i < 100; ++i) a->send(std::to_string(i));
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b->recv(), std::to_string(i));
  producer.join();
}

/// An endpoint that logs which channel each send was attempted on, then
/// forwards to the wrapped one.
class LoggedSend final : public net::Channel {
 public:
  LoggedSend(net::ChannelPtr inner, int id, std::vector<int>& log)
      : inner_(std::move(inner)), id_(id), log_(log) {}
  void send(std::string bytes) override {
    log_.push_back(id_);
    inner_->send(std::move(bytes));
  }
  std::string recv() override { return inner_->recv(); }
  std::optional<std::string> recv_timeout(double seconds) override {
    return inner_->recv_timeout(seconds);
  }
  void close() override { inner_->close(); }

 private:
  net::ChannelPtr inner_;
  int id_;
  std::vector<int>& log_;
};

/// The default group send is one unicast per member, in order: a member
/// whose send throws comes back by its position, and every other member
/// still gets the frame exactly once.
TEST(SendEach, ClosedMemberComesBackByPositionOthersGetTheFrame) {
  std::vector<int> log;
  std::vector<std::unique_ptr<LoggedSend>> ends;
  std::vector<net::ChannelPtr> peers;
  std::vector<net::Channel*> group;
  for (int i = 0; i < 4; ++i) {
    auto [end, peer] = net::make_inproc_pair();
    ends.push_back(std::make_unique<LoggedSend>(std::move(end), i, log));
    peers.push_back(std::move(peer));
    group.push_back(ends.back().get());
  }
  ends[1]->close();  // its send throws NetworkError

  EXPECT_EQ(net::send_each(group, "frame"), std::vector<std::size_t>{1});
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  for (std::size_t i : {0u, 2u, 3u}) {
    auto got = peers[i]->recv_timeout(0.0);
    ASSERT_TRUE(got.has_value()) << "member " << i;
    EXPECT_EQ(*got, "frame");
    EXPECT_FALSE(peers[i]->recv_timeout(0.0).has_value()) << "member " << i;
  }
}

TEST(Tcp, LoopbackRoundTrip) {
  net::TcpListener listener(0);
  std::thread client([&] {
    auto ch = net::tcp_connect("127.0.0.1", listener.port());
    ch->send("ping");
    EXPECT_EQ(ch->recv(), "pong");
  });
  auto server = listener.accept();
  EXPECT_EQ(server->recv(), "ping");
  server->send("pong");
  client.join();
}

TEST(Tcp, LargeMessageSurvivesFraming) {
  net::TcpListener listener(0);
  const std::string big(1 << 20, 'x');
  std::thread client([&] {
    auto ch = net::tcp_connect("127.0.0.1", listener.port());
    ch->send(big);
  });
  auto server = listener.accept();
  EXPECT_EQ(server->recv(), big);
  client.join();
}

/// recv_timeout(0) on an empty channel is a poll: the gather's zero-budget
/// drain must not sleep a scheduler tick per silent worker. A positive
/// budget still waits for all of it.
TEST(Tcp, ZeroBudgetRecvDoesNotBlock) {
  net::TcpListener listener(0);
  auto client = net::tcp_connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  using Clock = std::chrono::steady_clock;
  auto fastest = Clock::duration::max();
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    EXPECT_FALSE(server->recv_timeout(0.0).has_value());
    fastest = std::min(fastest, Clock::now() - t0);
  }
  EXPECT_LT(fastest, std::chrono::milliseconds(1));

  const auto t0 = Clock::now();
  EXPECT_FALSE(server->recv_timeout(0.020).has_value());
  EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(20));

  // A frame that is already there comes back at once, whole.
  client->send("ping");
  EXPECT_EQ(server->recv_timeout(1.0).value_or(""), "ping");
  client->send("");
  EXPECT_EQ(server->recv_timeout(1.0).value_or("missing"), "");
}

/// Sends one frame each way over `a` and `b`, from this thread and from
/// another. Two threads of this process have then sent over TCP, so from
/// here on its reads spin before they sleep (DESIGN.md §7).
void send_from_two_threads(net::Channel& a, net::Channel& b) {
  std::thread peer([&b] { b.send(b.recv()); });
  a.send("ping");
  EXPECT_EQ(a.recv(), "ping");
  peer.join();
}

/// Reads with `read` (recv, or recv_timeout with a budget that holds the
/// gap) while a peer sends a tcp_cnn_k2-sized frame 50 µs into the read's
/// spin and a second 5 ms later, when the reader has gone to sleep.
void expect_spin_and_sleep_frames_whole(
    const std::function<std::string(net::Channel&)>& read) {
  net::TcpListener listener(0);
  auto client = net::tcp_connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  send_from_two_threads(*server, *client);
  const std::string first(3256, 'a');
  std::string second(3256, 'b');
  second.front() = 'c';
  second.back() = 'd';
  std::atomic<bool> reading{false};
  std::thread sender([&] {
    while (!reading.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    client->send(first);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    client->send(second);
  });
  reading = true;
  EXPECT_EQ(read(*server), first);
  EXPECT_EQ(read(*server), second);
  sender.join();
}

TEST(Tcp, FramesDuringAndAfterTheSpinComeBackWhole) {
  expect_spin_and_sleep_frames_whole(
      [](net::Channel& ch) { return ch.recv(); });
  expect_spin_and_sleep_frames_whole([](net::Channel& ch) {
    return ch.recv_timeout(1.0).value_or("missing");
  });
}

/// A positive budget on a silent channel waits for all of it and not much
/// more: the spin is part of the budget, never added on top of it.
TEST(Tcp, TimedRecvSpinsWithinTheBudget) {
  net::TcpListener listener(0);
  auto client = net::tcp_connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  send_from_two_threads(*server, *client);
  using Clock = std::chrono::steady_clock;
  for (const auto budget :
       {std::chrono::microseconds(100), std::chrono::microseconds(1000)}) {
    const double seconds = std::chrono::duration<double>(budget).count();
    auto fastest = Clock::duration::max();
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      EXPECT_FALSE(server->recv_timeout(seconds).has_value());
      const auto took = Clock::now() - t0;
      EXPECT_GE(took, budget);
      fastest = std::min(fastest, took);
    }
    // A spin of 200 µs before a sleep of the whole budget takes at least
    // budget + 200 µs.
    EXPECT_LT(fastest, budget + std::chrono::microseconds(200))
        << "budget " << budget.count() << " us";
  }
}

#if defined(__linux__)
/// A thread whose own send is the latest in the process, and which then
/// sleeps in a read that a peer in another process wakes, keeps its core:
/// only another thread's send marks a core to step off. Raw socket writes
/// stand in for the other process, whose sends never mark this one's core.
TEST(Tcp, ReaderWokenFromOutsideKeepsItsCoreAfterItsOwnSend) {
  cpu_set_t full;
  ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
  std::vector<int> cores;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &full)) cores.push_back(c);
  }
  if (cores.size() < 2) GTEST_SKIP() << "needs two usable cores";
  {
    // Reads spin and may step off from here on (two threads have sent).
    net::TcpListener listener(0);
    auto client = net::tcp_connect("127.0.0.1", listener.port());
    auto server = listener.accept();
    send_from_two_threads(*server, *client);
  }
  net::TcpListener listener(0);
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  auto server = listener.accept();
  const std::string body = "result";
  const std::uint64_t len = body.size();
  std::string frame(sizeof(len), '\0');
  std::memcpy(frame.data(), &len, sizeof(len));
  frame += body;

  // The reader runs on cores[0] with cores[1] to step off to; the writer
  // runs elsewhere where it can, so the reader's own core is idle when the
  // frame wakes it.
  const int home = cores[0];
  const int writer_core = cores[cores.size() > 2 ? 2 : 1];
  cpu_set_t only_home;
  CPU_ZERO(&only_home);
  CPU_SET(home, &only_home);
  cpu_set_t two;
  CPU_ZERO(&two);
  CPU_SET(cores[0], &two);
  CPU_SET(cores[1], &two);
  int stayed = 0;
  for (int trial = 0; trial < 20; ++trial) {
    ASSERT_EQ(sched_setaffinity(0, sizeof(only_home), &only_home), 0);
    ASSERT_EQ(sched_setaffinity(0, sizeof(two), &two), 0);
    server->send("infer");  // the latest send in the process, from home
    std::thread writer([&] {
      cpu_set_t mine;
      CPU_ZERO(&mine);
      CPU_SET(writer_core, &mine);
      sched_setaffinity(0, sizeof(mine), &mine);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ::send(raw, frame.data(), frame.size(), MSG_NOSIGNAL);
    });
    EXPECT_EQ(server->recv(), body);
    if (sched_getcpu() == home) ++stayed;
    writer.join();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(full), &full), 0);
  ::close(raw);
  // A reader that stepped off its own send's core would never be on home
  // after a read: it either woke elsewhere or was moved to cores[1].
  EXPECT_GT(stayed, 0);
}
#endif

TEST(Tcp, ConnectToDeadPortFails) {
  EXPECT_THROW(net::tcp_connect("127.0.0.1", 1), NetworkError);
}

/// Two blobs experts trained via TeamNet, then served over the collaborative
/// protocol — results must match in-process ensemble inference bit-for-bit.
TEST(Collab, ProtocolMatchesEnsemble) {
  data::BlobsConfig bc;
  bc.num_samples = 400;
  auto ds = data::make_blobs(bc);

  core::TeamNetConfig cfg;
  cfg.num_experts = 2;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  core::TeamNetTrainer trainer(cfg, [&](int, Rng& rng) -> nn::ModulePtr {
    nn::MlpConfig mc;
    mc.in_features = bc.dims;
    mc.num_classes = static_cast<int>(bc.num_classes);
    mc.depth = 2;
    mc.hidden = 16;
    return std::make_unique<nn::MlpNet>(mc, rng);
  });
  auto ensemble = trainer.train(ds);
  auto expected = ensemble.infer(ds.images);

  auto [master_ch, worker_ch] = net::make_inproc_pair();
  net::CollaborativeWorker worker(ensemble.expert(1), *worker_ch);
  std::thread worker_thread([&worker] { worker.serve(); });

  net::CollaborativeMaster master(ensemble.expert(0), {master_ch.get()});
  auto actual = master.infer(ds.images);
  master.shutdown();
  worker_thread.join();

  EXPECT_EQ(actual.predictions, expected.predictions);
  EXPECT_EQ(actual.chosen, expected.chosen);
  EXPECT_TRUE(actual.probs.allclose(expected.probs, 1e-6f));
  EXPECT_EQ(worker.requests_served(), 1);
}

TEST(Collab, WorksOverRealTcp) {
  Rng rng(31);
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.num_classes = 4;
  mc.depth = 2;
  mc.hidden = 8;
  nn::MlpNet master_expert(mc, rng), worker_expert(mc, rng);

  net::TcpListener listener(0);
  std::thread worker_thread([&] {
    auto channel = net::tcp_connect("127.0.0.1", listener.port());
    net::CollaborativeWorker worker(worker_expert, *channel);
    worker.serve();
  });
  auto worker_channel = listener.accept();

  net::CollaborativeMaster master(master_expert, {worker_channel.get()});
  Tensor x = Tensor::randn({5, 8}, rng);
  auto result = master.infer(x);
  EXPECT_EQ(result.predictions.size(), 5u);
  for (int chosen : result.chosen) {
    EXPECT_GE(chosen, 0);
    EXPECT_LE(chosen, 1);
  }
  master.shutdown();
  worker_thread.join();
}

TEST(Collab, ComputeHooksFire) {
  Rng rng(33);
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.num_classes = 4;
  mc.depth = 2;
  mc.hidden = 8;
  nn::MlpNet m(mc, rng), w(mc, rng);
  auto [a, b] = net::make_inproc_pair();

  std::int64_t worker_flops = 0;
  net::CollaborativeWorker worker(w, *b);
  worker.set_compute_hook([&](std::int64_t f) { worker_flops += f; });
  std::thread t([&worker] { worker.serve(); });

  std::int64_t master_flops = 0;
  net::CollaborativeMaster master(m, {a.get()});
  master.set_compute_hook([&](std::int64_t f) { master_flops += f; });
  master.infer(Tensor::randn({3, 8}, rng));
  master.shutdown();
  t.join();

  const std::int64_t expected = m.analyze({8}).flops * 3;
  EXPECT_EQ(master_flops, expected);
  EXPECT_EQ(worker_flops, expected);
}


// ---- per-qid routing (pipelined serving) ------------------------------------

/// A worker's Result for query `qid`: one row whose entropy is `entropy`
/// and whose probabilities put all mass on class `label`.
std::string result_frame(std::int64_t qid, int label, float entropy) {
  net::Message reply;
  reply.type = net::MsgType::Result;
  reply.ints = {qid};
  Tensor probs({1, 4});
  probs[label] = 1.0f;
  Tensor h({1});
  h[0] = entropy;
  reply.tensors = {probs, h};
  return reply.encode();
}

TEST(MasterCore, RoutesEachReplyToTheQueryItNames) {
  nn::MlpConfig mc;
  mc.in_features = 8;
  mc.num_classes = 4;
  mc.depth = 2;
  mc.hidden = 8;
  Rng rng(3);
  nn::MlpNet local(mc, rng);
  auto [m0, w0] = net::make_inproc_pair();
  auto [m1, w1] = net::make_inproc_pair();
  net::CollaborativeMaster master(local, {m0.get(), m1.get()});

  const std::int64_t q1 = master.submit(Tensor::randn({1, 8}, rng));
  const std::int64_t q2 = master.submit(Tensor::randn({1, 8}, rng));
  ASSERT_NE(q1, q2);
  // Both Infer frames reached both workers, each carrying its own id.
  for (net::Channel* worker : {w0.get(), w1.get()}) {
    EXPECT_EQ(net::infer_info(net::Message::decode(worker->recv())).qid, q1);
    EXPECT_EQ(net::infer_info(net::Message::decode(worker->recv())).qid, q2);
  }

  // Worker 1 answers q2 first, then q1: read after q2 was dispatched, the
  // q1 reply still answers q1.
  EXPECT_EQ(master.deliver(0, result_frame(q2, 2, 0.0f)), 0);
  EXPECT_EQ(master.deliver(0, result_frame(q1, 1, 0.0f)), 0);
  EXPECT_EQ(master.deliver(1, result_frame(q1, 3, -1.0f)), q1);
  const auto r1 = master.complete(q1);
  EXPECT_EQ(r1.answered, 3);
  EXPECT_EQ(r1.degradation, net::DegradationLevel::full);
  EXPECT_EQ(r1.chosen, std::vector<int>{2});  // lowest entropy: worker 2
  EXPECT_EQ(r1.predictions, std::vector<int>{3});
  EXPECT_EQ(master.stale_replies_discarded(), 0);

  // A reply for a completed query and one for an id never issued are stale.
  EXPECT_EQ(master.deliver(1, result_frame(q1, 3, -1.0f)), 0);
  EXPECT_EQ(master.deliver(1, result_frame(q2 + 40, 3, -1.0f)), 0);
  EXPECT_EQ(master.stale_replies_discarded(), 2);

  // q2 completes on its own answers; ties on entropy go to the lowest node.
  EXPECT_EQ(master.deliver(1, result_frame(q2, 0, 0.0f)), q2);
  const auto r2 = master.complete(q2);
  EXPECT_EQ(r2.answered, 3);
  EXPECT_EQ(r2.chosen, std::vector<int>{1});
  EXPECT_EQ(r2.predictions, std::vector<int>{2});
}

}  // namespace
}  // namespace teamnet
