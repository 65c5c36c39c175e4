#include "net/message.hpp"

#include "common/error.hpp"
#include "common/raw_bytes.hpp"
#include "nn/serialize.hpp"

namespace teamnet::net {

// analyze:hot  (per-query path: hot-path allocation audit root)
std::string Message::encode() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(encoded_size()));
  write_raw(out, static_cast<std::uint32_t>(type));
  write_raw(out, checked_narrow<std::uint32_t>(ints.size()));
  for (std::int64_t v : ints) write_raw(out, v);
  write_raw(out, checked_narrow<std::uint32_t>(tensors.size()));
  for (const Tensor& t : tensors) nn::write_tensor(out, t);
  return out;
}

// analyze:hot  (per-query path: hot-path allocation audit root)
Message Message::decode(const std::string& bytes) {
  Message msg;
  std::size_t offset = 0;
  msg.type = static_cast<MsgType>(read_raw<std::uint32_t>(bytes, offset));
  const auto n_ints = read_raw<std::uint32_t>(bytes, offset);
  if (n_ints > (1u << 20)) throw SerializationError("implausible int count");
  msg.ints.reserve(n_ints);
  for (std::uint32_t i = 0; i < n_ints; ++i) {
    msg.ints.push_back(read_raw<std::int64_t>(bytes, offset));
  }
  const auto n_tensors = read_raw<std::uint32_t>(bytes, offset);
  if (n_tensors > (1u << 16)) throw SerializationError("implausible tensor count");
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    msg.tensors.push_back(nn::read_tensor(bytes, offset));
  }
  return msg;
}

InferInfo infer_info(const Message& msg) {
  InferInfo info;
  if (!msg.ints.empty()) info.qid = msg.ints[0];
  if (msg.ints.size() > 1 && msg.ints[1] >= 0) info.deadline_us = msg.ints[1];
  if (msg.ints.size() > 2) info.hedged = (msg.ints[2] & kHedgedFlag) != 0;
  return info;
}

void set_infer_info(Message& msg, const InferInfo& info) {
  msg.ints = {info.qid, info.deadline_us,
              info.hedged ? kHedgedFlag : std::int64_t{0}};
}

std::int64_t Message::encoded_size() const {
  std::int64_t size = 4 + 4 + 4;  // type + two counts
  size += static_cast<std::int64_t>(ints.size()) * 8;
  for (const Tensor& t : tensors) {
    size += 4 + t.rank() * 8 + t.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  return size;
}

}  // namespace teamnet::net
