#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace teamnet {

void poison_uninitialized([[maybe_unused]] float* p,
                          [[maybe_unused]] std::int64_t n) {
#ifdef TEAMNET_POISON_UNINITIALIZED
  std::fill_n(p, static_cast<std::size_t>(n),
              std::numeric_limits<float>::quiet_NaN());
#endif
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    TEAMNET_CHECK_MSG(d >= 0, "negative dimension in " << shape_to_string(shape));
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  data_ = std::shared_ptr<float[]>(new float[static_cast<std::size_t>(numel_)]());
}

Tensor::Tensor(Shape shape, Uninitialized) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  data_ = std::shared_ptr<float[]>(new float[static_cast<std::size_t>(numel_)]);
  poison_uninitialized(data_.get(), numel_);
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : Tensor(std::move(shape), uninitialized) {
  TEAMNET_CHECK_MSG(static_cast<std::int64_t>(values.size()) == numel_,
                    "shape " << shape_to_string(shape_) << " needs " << numel_
                             << " values, got " << values.size());
  std::copy(values.begin(), values.end(), data_.get());
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::vector(std::initializer_list<float> values) {
  Tensor t({static_cast<std::int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.values()) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.values()) v = rng.uniform(lo, hi);
  return t;
}

std::int64_t Tensor::dim(std::int64_t axis) const {
  TEAMNET_CHECK_MSG(axis >= 0 && axis < rank(),
                    "axis " << axis << " out of range for rank " << rank());
  return shape_[static_cast<std::size_t>(axis)];
}

float& Tensor::at(std::int64_t i) {
  TEAMNET_CHECK(rank() == 1 && i >= 0 && i < shape_[0]);
  return data_.get()[i];
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  TEAMNET_CHECK(rank() == 2 && i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
  return data_.get()[i * shape_[1] + j];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  TEAMNET_CHECK(rank() == 3 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1] && k >= 0 && k < shape_[2]);
  return data_.get()[(i * shape_[1] + j) * shape_[2] + k];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
  TEAMNET_CHECK(rank() == 4 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1] && k >= 0 && k < shape_[2] && l >= 0 &&
                l < shape_[3]);
  return data_.get()[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

Tensor Tensor::reshape(Shape shape) const {
  std::int64_t known = 1;
  std::int64_t infer_at = -1;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      TEAMNET_CHECK_MSG(infer_at < 0, "multiple -1 dims in reshape");
      infer_at = static_cast<std::int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer_at >= 0) {
    TEAMNET_CHECK_MSG(known > 0 && numel_ % known == 0,
                      "cannot infer dim: numel=" << numel_ << " known=" << known);
    shape[static_cast<std::size_t>(infer_at)] = numel_ / known;
  }
  TEAMNET_CHECK_MSG(shape_numel(shape) == numel_,
                    "reshape " << shape_to_string(shape_) << " -> "
                               << shape_to_string(shape) << " changes numel");
  Tensor view;
  view.shape_ = std::move(shape);
  view.numel_ = numel_;
  view.data_ = data_;
  return view;
}

Tensor Tensor::slice_rows(std::int64_t begin, std::int64_t end) const {
  TEAMNET_CHECK_MSG(rank() >= 1 && 0 <= begin && begin <= end &&
                        end <= shape_[0],
                    "rows [" << begin << ", " << end << ") of "
                             << shape_to_string(shape_));
  const std::int64_t row = shape_[0] == 0 ? 0 : numel_ / shape_[0];
  Tensor view;
  view.shape_ = shape_;
  view.shape_[0] = end - begin;
  view.numel_ = (end - begin) * row;
  view.data_ = std::shared_ptr<float[]>(data_, data_.get() + begin * row);
  return view;
}

Tensor Tensor::clone() const {
  Tensor copy(shape_);
  if (numel_ > 0) {
    std::memcpy(copy.data(), data(), static_cast<std::size_t>(numel_) * sizeof(float));
  }
  return copy;
}

void Tensor::fill(float value) {
  std::fill_n(data_.get(), static_cast<std::size_t>(numel_), value);
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (std::int64_t i = 0; i < numel_; ++i) {
    if (std::abs(data_.get()[i] - other.data_.get()[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::to_string(std::int64_t max_values) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const std::int64_t n = std::min(numel_, max_values);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_.get()[i];
  }
  if (numel_ > n) os << ", ...";
  os << '}';
  return os.str();
}

Tensor KeptOutput::take(const Shape& shape) {
  if (shape.empty() || shape[0] != 1 ||
      claimed_.test_and_set(std::memory_order_acquire)) {
    return Tensor(shape, uninitialized);
  }
  Tensor out;
  // use_count() is a relaxed load, but once it reads 1 no thread can add
  // a holder while this claim stands, so the copy's acq_rel increment reads
  // the last holder's release decrement: every read of the old contents
  // happens before the writes to come.
  if (kept_.data_.use_count() == 1 && kept_.shape_ == shape) {
    out = kept_;
    poison_uninitialized(out.data(), out.numel());
  } else {
    out = Tensor(shape, uninitialized);
    kept_ = out;
  }
  claimed_.clear(std::memory_order_release);
  return out;
}

}  // namespace teamnet
