// Seed-corpus generator. Writes the checked-in corpora under
// fuzz/corpus/<target>/ — run it after changing a wire format so the seeds
// keep exercising the interesting branches of the CURRENT decoders:
//
//   ./fuzz_seed_gen <repo>/fuzz/corpus
//
// Each target gets well-formed inputs of varying shapes (fuzzers mutate
// outward from valid structure far faster than from garbage), plus
// truncated / corrupted / garbage variants that pin the rejection paths.
// Every generated seed is replayed through the decode contract before it
// is written, so a generator bug cannot check in a crashing "seed".
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "decode_targets.hpp"

namespace {

using teamnet::Rng;
using teamnet::Tensor;

void write_seed(const std::filesystem::path& dir, const std::string& name,
                const std::string& bytes, bool (*contract)(const std::string&)) {
  (void)contract(bytes);  // throws / crashes here rather than after check-in
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write seed " + name);
}

std::string encoded_message(teamnet::net::MsgType type, int n_ints,
                            const std::vector<teamnet::Shape>& shapes,
                            std::uint64_t seed) {
  Rng rng(seed);
  teamnet::net::Message msg;
  msg.type = type;
  for (int i = 0; i < n_ints; ++i) msg.ints.push_back(rng.randint(-1000, 1000));
  for (const auto& shape : shapes) msg.tensors.push_back(Tensor::randn(shape, rng));
  return msg.encode();
}

std::string corrupt(std::string bytes, std::size_t pos, unsigned char flip) {
  bytes[pos % bytes.size()] = static_cast<char>(
      static_cast<unsigned char>(bytes[pos % bytes.size()]) ^ flip);
  return bytes;
}

void gen_message(const std::filesystem::path& dir) {
  const auto c = teamnet::fuzz::message_decode;
  int n = 0;
  const auto add = [&](const std::string& bytes) {
    char name[32];
    std::snprintf(name, sizeof(name), "seed_%02d", n++);
    write_seed(dir, name, bytes, c);
  };
  using teamnet::net::MsgType;
  add(encoded_message(MsgType::Ack, 0, {}, 1));
  add(encoded_message(MsgType::Infer, 0, {{1, 28 * 28}}, 2));
  add(encoded_message(MsgType::Result, 2, {{1, 10}, {1}}, 3));
  add(encoded_message(MsgType::Shutdown, 0, {}, 4));
  add(encoded_message(MsgType::Weights, 1, {{4, 3}, {4}, {3}}, 5));
  add(encoded_message(MsgType::Collective, 3, {{2, 2, 2}}, 6));
  add(encoded_message(MsgType::Result, 8, {{5}}, 7));
  add(encoded_message(MsgType::Infer, 0, {{3, 32, 32}}, 8));
  add(encoded_message(MsgType::Collective, 1, {{}}, 9));        // rank-0 tensor
  add(encoded_message(MsgType::Ack, 16, {}, 10));
  const std::string base = encoded_message(MsgType::Result, 2, {{2, 3}}, 11);
  add(base.substr(0, 0));                                       // empty
  add(base.substr(0, 3));                                       // inside type
  add(base.substr(0, 8));                                       // after counts
  add(base.substr(0, base.size() / 2));                         // mid-tensor
  add(base.substr(0, base.size() - 1));                         // one byte short
  add(corrupt(base, 0, 0xFF));                                  // wild type
  add(corrupt(base, 4, 0xFF));                                  // wild int count
  add(corrupt(base, base.size() / 2, 0x80));                    // payload flip
  add(base + std::string(7, '\x7f'));                           // trailing junk
  add(std::string(48, '\xee'));                                 // pure garbage
  add(std::string("TNET????????"));                             // wrong format
  // Deadline-budget Infer frames (DESIGN.md §13): qid + absolute deadline
  // stamp + flags, so the fuzzer mutates outward from the degradation
  // plane's current dispatch layout, not just the legacy 1-int frame.
  const auto infer_frame = [](std::int64_t qid, std::int64_t deadline_us,
                              bool hedged, std::uint64_t seed) {
    Rng rng(seed);
    teamnet::net::Message msg;
    msg.type = MsgType::Infer;
    teamnet::net::InferInfo info;
    info.qid = qid;
    info.deadline_us = deadline_us;
    info.hedged = hedged;
    teamnet::net::set_infer_info(msg, info);
    msg.tensors = {Tensor::randn({1, 8}, rng)};
    return msg.encode();
  };
  add(infer_frame(3, 1'000'000, false, 12));                    // live budget
  add(infer_frame(4, teamnet::net::kNoDeadlineUs, true, 13));   // hedged, unbounded
  add(infer_frame(9'000'000'000'000LL,
                  std::numeric_limits<std::int64_t>::max(), true, 14));
  add(corrupt(infer_frame(5, 777, false, 15), 12, 0xFF));       // mangled stamp
  // The airtime-first wire's compact Infer (DESIGN.md §9), and each
  // malformed variant, which must be rejected.
  add(teamnet::fuzz::compact_infer_frame());
  for (const std::string& bad : teamnet::fuzz::malformed_compact_frames()) {
    if (c(bad)) throw std::runtime_error("a malformed compact frame decoded");
    add(bad);
  }
  // The palette payload (top bytes, packed indices, low bytes), and each
  // malformed variant, which must be rejected.
  add(teamnet::fuzz::palette_infer_frame());
  for (const std::string& bad : teamnet::fuzz::malformed_palette_frames()) {
    if (c(bad)) throw std::runtime_error("a malformed palette frame decoded");
    add(bad);
  }
  std::printf("message_decode: %d seeds\n", n);
}

void gen_checkpoint(const std::filesystem::path& dir) {
  const auto c = teamnet::fuzz::checkpoint_decode;
  int n = 0;
  const auto add = [&](const std::string& bytes) {
    char name[32];
    std::snprintf(name, sizeof(name), "seed_%02d", n++);
    write_seed(dir, name, bytes, c);
  };
  Rng rng(42);
  const auto snapshot = [&rng](const std::vector<teamnet::Shape>& shapes) {
    std::ostringstream os(std::ios::binary);
    std::vector<Tensor> tensors;
    for (const auto& shape : shapes) tensors.push_back(Tensor::randn(shape, rng));
    teamnet::nn::save_tensors(os, tensors);
    return os.str();
  };
  add(snapshot({}));                                            // zero tensors
  add(snapshot({{1}}));
  add(snapshot({{4, 4}, {2}}));
  add(snapshot({{8, 8, 3}, {8}, {3}}));
  add(snapshot({{}}));                                          // rank-0
  add(snapshot({{0}}));                                         // zero-size dim
  add(snapshot({{784, 16}, {16}, {16, 10}, {10}}));             // MLP-ish
  add(snapshot({{1, 1, 1, 1, 1, 1, 1, 1}}));                    // max rank
  const std::string base = snapshot({{3, 3}, {3}});
  add(base.substr(0, 2));                                       // inside magic
  add(base.substr(0, 4));                                       // magic only
  add(base.substr(0, 8));                                       // version only
  add(base.substr(0, 16));                                      // count only
  add(base.substr(0, base.size() - 5));                         // mid-data
  add(base.substr(0, base.size() - 1));
  add(corrupt(base, 1, 0x01));                                  // bad magic
  add(corrupt(base, 4, 0xFF));                                  // bad version
  add(corrupt(base, 8, 0xFF));                                  // wild count
  add(corrupt(base, 16, 0xFF));                                 // wild rank
  add(corrupt(base, 20, 0x7F));                                 // wild dim
  add(base + base);                                             // trailing junk
  add(std::string(64, '\0'));
  std::printf("checkpoint_decode: %d seeds\n", n);
}

void gen_gate(const std::filesystem::path& dir) {
  const auto c = teamnet::fuzz::gate_policy_decide;
  int n = 0;
  const auto add = [&](const std::string& bytes) {
    char name[32];
    std::snprintf(name, sizeof(name), "seed_%02d", n++);
    write_seed(dir, name, bytes, c);
  };
  Rng rng(13);
  // Header: k-1 | kind | n-1, then raw little-endian float entropies.
  const auto build = [&rng](unsigned char k, unsigned char kind,
                            unsigned char rows, int n_floats,
                            float lo, float hi) {
    std::string bytes;
    bytes.push_back(static_cast<char>(k - 1));
    bytes.push_back(static_cast<char>(kind));
    bytes.push_back(static_cast<char>(rows - 1));
    for (int i = 0; i < n_floats; ++i) {
      const float v = rng.uniform(lo, hi);
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    return bytes;
  };
  // Every policy kind at several (K, n) shapes and entropy ranges.
  for (unsigned char kind = 0; kind < 4; ++kind) {
    add(build(2, kind, 8, 16, 0.0f, 2.3f));
    add(build(4, kind, 16, 64, 0.0f, 2.3f));
    add(build(8, kind, 32, 256, 0.001f, 0.01f));  // near-degenerate entropies
    add(build(3, kind, 1, 3, 0.0f, 5.0f));        // single-row batch
  }
  // Non-finite and hostile float payloads.
  const auto with_floats = [](std::initializer_list<float> vs) {
    std::string bytes("\x03\x00\x07", 3);  // K=4, learned, n=8
    for (float v : vs) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    return bytes;
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  add(with_floats({nan, nan, nan, nan, 1.0f, 2.0f, 3.0f, 4.0f}));
  add(with_floats({inf, -inf, inf, -inf, 0.0f, -0.0f, 1e38f, -1e38f}));
  add(with_floats({1e-44f, -1e-44f, 1e38f, 0.5f}));  // denormals
  add(std::string("\x00\x00\x00", 3));               // header only, K=1
  add(std::string(3 + 64, '\xff'));                  // all-ones floats (NaN)
  add(std::string(2, '\x01'));                       // too short → reject
  std::printf("gate_policy: %d seeds\n", n);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path root(argv[1]);
  const struct {
    const char* name;
    void (*gen)(const std::filesystem::path&);
  } targets[] = {
      {"message_decode", gen_message},
      {"checkpoint_decode", gen_checkpoint},
      {"gate_policy", gen_gate},
  };
  for (const auto& target : targets) {
    const auto dir = root / target.name;
    std::filesystem::create_directories(dir);
    target.gen(dir);
  }
  return 0;
}
