// Dense row-major float tensor — the numeric substrate for the whole
// reproduction (the paper used TensorFlow; see DESIGN.md §1.1).
//
// Tensors are cheap value types: copying a Tensor shares the underlying
// buffer (clone() deep-copies). All tensors are contiguous; reshape()
// returns a view over the same buffer.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace teamnet {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::int64_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" — for error messages.
std::string shape_to_string(const Shape& shape);

/// Tag for the Tensor constructor that leaves its storage unset.
struct Uninitialized {};
inline constexpr Uninitialized uninitialized{};

class Tensor {
 public:
  /// Empty tensor (rank 0, no buffer). numel() == 0.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor whose elements are not set, for a kernel that writes every one
  /// of them. AddressSanitizer builds fill it with NaN instead, so an
  /// element a kernel forgets to write shows up in any bit-identity test.
  Tensor(Shape shape, Uninitialized);

  /// Tensor with explicit contents; `values.size()` must match the shape.
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// 1-D tensor from an initializer list.
  static Tensor vector(std::initializer_list<float> values);
  /// I.i.d. normal entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t axis) const;
  std::int64_t numel() const { return numel_; }
  bool defined() const { return data_ != nullptr; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  std::span<float> values() { return {data_.get(), static_cast<std::size_t>(numel_)}; }
  std::span<const float> values() const {
    return {data_.get(), static_cast<std::size_t>(numel_)};
  }

  /// Flat element access.
  float& operator[](std::int64_t i) { return data_.get()[i]; }
  float operator[](std::int64_t i) const { return data_.get()[i]; }

  /// Checked multi-dimensional access (rank 1–4).
  float& at(std::int64_t i);
  float& at(std::int64_t i, std::int64_t j);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l);
  float at(std::int64_t i) const { return const_cast<Tensor*>(this)->at(i); }
  float at(std::int64_t i, std::int64_t j) const {
    return const_cast<Tensor*>(this)->at(i, j);
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return const_cast<Tensor*>(this)->at(i, j, k);
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const {
    return const_cast<Tensor*>(this)->at(i, j, k, l);
  }

  /// View with a new shape over the same buffer (numel must match; a single
  /// -1 dimension is inferred).
  Tensor reshape(Shape shape) const;

  /// Deep copy.
  Tensor clone() const;

  /// Sets every element to `value`.
  void fill(float value);

  /// True when shapes match and all elements are within `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5f) const;

  /// Human-readable summary (shape + first few values).
  std::string to_string(std::int64_t max_values = 8) const;

 private:
  Shape shape_;
  std::int64_t numel_ = 0;
  std::shared_ptr<float[]> data_;
};

}  // namespace teamnet
