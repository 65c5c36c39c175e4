#include "nn/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/raw_bytes.hpp"

namespace teamnet::nn {

namespace {

constexpr char kMagic[4] = {'T', 'N', 'E', 'T'};
constexpr std::uint32_t kVersion = 2;

}  // namespace

std::int64_t checked_decode_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    if (d < 0) throw SerializationError("negative dimension in decoded shape");
    if (d != 0 && n > kMaxDecodeTensorElems / d) {
      throw SerializationError("implausible tensor size in decoded shape");
    }
    n *= d;
  }
  return n;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_raw(os, checked_narrow<std::uint32_t>(t.rank()));
  for (std::int64_t d = 0; d < t.rank(); ++d) write_raw(os, t.dim(d));
  write_raw_array(os, t.data(), static_cast<std::size_t>(t.numel()));
  if (!os) throw SerializationError("tensor write failed");
}

Tensor read_tensor(std::istream& is) {
  const auto rank = read_raw<std::uint32_t>(is);
  if (rank > 8) throw SerializationError("implausible tensor rank");
  Shape shape(rank);
  for (auto& d : shape) {
    d = read_raw<std::int64_t>(is);
    if (d < 0 || d > (1 << 28)) throw SerializationError("implausible dim");
  }
  (void)checked_decode_numel(shape);  // reject overflow / oversize upfront
  Tensor t(shape);
  read_raw_array(is, t.data(), static_cast<std::size_t>(t.numel()));
  return t;
}

void write_tensor(std::string& out, const Tensor& t) {
  write_raw(out, checked_narrow<std::uint32_t>(t.rank()));
  for (std::int64_t d = 0; d < t.rank(); ++d) write_raw(out, t.dim(d));
  write_raw_array(out, t.data(), static_cast<std::size_t>(t.numel()));
}

Tensor read_tensor(const std::string& in, std::size_t& offset) {
  const auto rank = read_raw<std::uint32_t>(in, offset);
  if (rank > 8) throw SerializationError("implausible tensor rank");
  Shape shape(rank);
  for (auto& d : shape) {
    d = read_raw<std::int64_t>(in, offset);
    if (d < 0 || d > (1 << 28)) throw SerializationError("implausible dim");
  }
  // Reject overflow, oversize and a short frame before allocating.
  const auto numel = static_cast<std::size_t>(checked_decode_numel(shape));
  if ((in.size() - offset) / sizeof(float) < numel) {
    throw SerializationError("truncated buffer: tensor data");
  }
  Tensor t(std::move(shape), uninitialized);
  read_raw_array(in, offset, t.data(), numel);
  return t;
}

void save_tensors(std::ostream& os, const std::vector<Tensor>& tensors) {
  write_raw_array(os, kMagic, sizeof(kMagic));
  write_raw(os, kVersion);
  write_raw(os, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& t : tensors) write_tensor(os, t);
}

std::vector<Tensor> load_tensors(std::istream& is) {
  char magic[4];
  read_raw_array(is, magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw SerializationError("bad magic — not a TeamNet checkpoint");
  }
  const auto version = read_raw<std::uint32_t>(is);
  if (version != kVersion) {
    throw SerializationError("unsupported checkpoint version " +
                             std::to_string(version));
  }
  const auto count = read_raw<std::uint64_t>(is);
  if (count > (1u << 20)) throw SerializationError("implausible tensor count");
  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) tensors.push_back(read_tensor(is));
  return tensors;
}

void save_tensors(const std::string& path, const std::vector<Tensor>& tensors) {
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  try {
    std::ofstream os(tmp, std::ios::binary);
    save_tensors(os, tensors);
    os.close();
    std::error_code ec;
    if (os) std::filesystem::rename(tmp, path, ec);
    if (!os || ec) throw SerializationError("cannot write " + path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

std::vector<Tensor> load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw SerializationError("cannot open for read: " + path);
  return load_tensors(is);
}

namespace {

/// Snapshot of a module's full state: parameters() followed by buffers()
/// (batch-norm running statistics etc.), all deep copies.
std::vector<Tensor> snapshot_parameters(Module& module) {
  std::vector<Tensor> values;
  for (const auto& p : module.parameters()) values.push_back(p.value().clone());
  // Non-trainable state (batch-norm running stats) follows the parameters.
  for (const Tensor* b : module.buffers()) values.push_back(b->clone());
  return values;
}

/// Copies `values` back into the module's parameters and buffers; counts
/// and shapes must match.
void restore_parameters(Module& module, const std::vector<Tensor>& values) {
  auto params = module.parameters();
  auto buffers = module.buffers();
  TEAMNET_CHECK_MSG(params.size() + buffers.size() == values.size(),
                    "tensor count mismatch: module has "
                        << params.size() << " params + " << buffers.size()
                        << " buffers, checkpoint has " << values.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    TEAMNET_CHECK_MSG(params[i].value().shape() == values[i].shape(),
                      "parameter " << i << " shape mismatch");
    std::memcpy(params[i].mutable_value().data(), values[i].data(),
                static_cast<std::size_t>(values[i].numel()) * sizeof(float));
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const Tensor& src = values[params.size() + i];
    TEAMNET_CHECK_MSG(buffers[i]->shape() == src.shape(),
                      "buffer " << i << " shape mismatch");
    std::memcpy(buffers[i]->data(), src.data(),
                static_cast<std::size_t>(src.numel()) * sizeof(float));
  }
}

}  // namespace

void save_module(const std::string& path, Module& module) {
  save_tensors(path, snapshot_parameters(module));
}

void load_module(const std::string& path, Module& module) {
  restore_parameters(module, load_tensors(path));
}

std::string serialize_parameters(Module& module) {
  std::ostringstream os(std::ios::binary);
  save_tensors(os, snapshot_parameters(module));
  return os.str();
}

void deserialize_parameters(const std::string& bytes, Module& module) {
  std::istringstream is(bytes, std::ios::binary);
  restore_parameters(module, load_tensors(is));
}

}  // namespace teamnet::nn
