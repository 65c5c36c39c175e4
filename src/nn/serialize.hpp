// Binary (de)serialization of tensors and module parameters.
//
// Format (little-endian):
//   magic "TNET" | u32 version | u64 tensor_count |
//   per tensor: u32 rank | i64 dims[rank] | f32 data[numel]
//
// Used for model checkpoints and for shipping expert weights to edge
// workers over the socket layer.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace teamnet::nn {

/// Largest element count a DECODER will accept for one tensor (16M floats
/// = 64 MiB). Encoding is unbounded; the bound only rejects wire/checkpoint
/// input whose header promises more data than any TeamNet model ships,
/// before the decoder allocates for it. Shared by the checkpoint and message
/// decoders so the fuzz harnesses test one contract.
constexpr std::int64_t kMaxDecodeTensorElems = std::int64_t{1} << 24;

/// Overflow-safe shape_numel for decoders: throws SerializationError when
/// the dims are negative, multiply past INT64_MAX, or exceed
/// kMaxDecodeTensorElems (shape_numel would be UB on the overflow case).
std::int64_t checked_decode_numel(const Shape& shape);

void write_tensor(std::ostream& os, const Tensor& t);
Tensor read_tensor(std::istream& is);

/// The same tensor format appended to, or parsed in place from, an
/// in-memory frame (net::Message), with no stream object. read_tensor
/// starts at `offset`, advances it past the tensor and rejects exactly
/// what the stream form rejects (SerializationError); the tensor's data is
/// written once, straight from the frame.
void write_tensor(std::string& out, const Tensor& t);
Tensor read_tensor(const std::string& in, std::size_t& offset);

/// Serializes all tensors in order.
void save_tensors(std::ostream& os, const std::vector<Tensor>& tensors);
std::vector<Tensor> load_tensors(std::istream& is);

/// File forms. The save is atomic: it writes a sibling temp file whose name
/// is unique per writer (pid + per-process sequence number) and renames it
/// over `path`, so a concurrent reader sees either the old file or the new
/// one, never a partial write.
void save_tensors(const std::string& path, const std::vector<Tensor>& tensors);
std::vector<Tensor> load_tensors(const std::string& path);

/// File-based convenience wrappers over the path forms above.
void save_module(const std::string& path, Module& module);
void load_module(const std::string& path, Module& module);

/// In-memory round trip (used by the network layer to ship weights).
std::string serialize_parameters(Module& module);
void deserialize_parameters(const std::string& bytes, Module& module);

}  // namespace teamnet::nn
