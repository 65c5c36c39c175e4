#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace teamnet::data {

Shape Dataset::sample_shape() const {
  TEAMNET_CHECK(images.rank() >= 1);
  Shape s(images.shape().begin() + 1, images.shape().end());
  return s;
}

Dataset Dataset::subset(const std::vector<int>& indices) const {
  Dataset out;
  out.images = ops::take_rows(images, indices);
  out.labels.reserve(indices.size());
  for (int i : indices) {
    TEAMNET_CHECK(i >= 0 && i < size());
    out.labels.push_back(labels[static_cast<std::size_t>(i)]);
  }
  out.num_classes = num_classes;
  return out;
}

Dataset Dataset::take(std::int64_t n) const {
  TEAMNET_CHECK(n >= 0 && n <= size());
  std::vector<int> indices(static_cast<std::size_t>(n));
  std::iota(indices.begin(), indices.end(), 0);
  return subset(indices);
}

void Dataset::shuffle(Rng& rng) {
  TEAMNET_CHECK(images.rank() >= 1 && images.dim(0) == size());
  std::vector<int> perm = rng.permutation(static_cast<int>(size()));
  const std::int64_t row = size() == 0 ? 0 : images.numel() / size();
  const auto row_at = [this, row](int i) { return images.data() + i * row; };
  const auto slot = [](int i) { return static_cast<std::size_t>(i); };
  // Follow each cycle of the permutation once: carry its first row, pull
  // every later row into the slot before it, then drop the carried row
  // into the last slot. A placed slot becomes a fixed point of `perm`.
  std::vector<float> carry(static_cast<std::size_t>(row));
  for (int start = 0; start < size(); ++start) {
    if (perm[slot(start)] == start) continue;
    std::copy_n(row_at(start), row, carry.data());
    const int carry_label = labels[slot(start)];
    int i = start;
    while (perm[slot(i)] != start) {
      const int next = perm[slot(i)];
      std::copy_n(row_at(next), row, row_at(i));
      labels[slot(i)] = labels[slot(next)];
      perm[slot(i)] = i;
      i = next;
    }
    std::copy_n(carry.data(), row, row_at(i));
    labels[slot(i)] = carry_label;
    perm[slot(i)] = i;
  }
}

std::int64_t split_row(std::int64_t n, double frac) {
  TEAMNET_CHECK(n >= 0 && frac >= 0.0 && frac <= 1.0);
  return static_cast<std::int64_t>(static_cast<double>(n) * frac);
}

std::pair<Dataset, Dataset> Dataset::split(double frac) const {
  const std::int64_t n_first = split_row(size(), frac);
  const auto part = [this](std::int64_t begin, std::int64_t end) {
    Dataset out;
    out.images = images.slice_rows(begin, end);
    out.labels.assign(labels.begin() + begin, labels.begin() + end);
    out.num_classes = num_classes;
    return out;
  };
  return {part(0, n_first), part(n_first, size())};
}

std::vector<int> Dataset::class_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(num_classes), 0);
  for (int y : labels) {
    TEAMNET_CHECK(y >= 0 && y < num_classes);
    ++counts[static_cast<std::size_t>(y)];
  }
  return counts;
}

void Dataset::validate() const {
  TEAMNET_CHECK_MSG(images.rank() >= 2, "images must be batched");
  TEAMNET_CHECK_MSG(images.dim(0) == size(),
                    "images batch " << images.dim(0) << " != labels "
                                    << size());
  TEAMNET_CHECK(num_classes > 0);
  for (int y : labels) TEAMNET_CHECK(y >= 0 && y < num_classes);
}

BatchIterator::BatchIterator(const Dataset& dataset, std::int64_t batch_size,
                             Rng* rng)
    : dataset_(dataset), batch_size_(batch_size), rng_(rng) {
  TEAMNET_CHECK(batch_size > 0);
  order_.resize(static_cast<std::size_t>(dataset.size()));
  std::iota(order_.begin(), order_.end(), 0);
  reset();
}

void BatchIterator::reset() {
  cursor_ = 0;
  if (rng_ != nullptr) rng_->shuffle(order_);
}

std::int64_t BatchIterator::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

Batch BatchIterator::next() {
  if (cursor_ >= dataset_.size()) return Batch{};
  const std::int64_t end = std::min(cursor_ + batch_size_, dataset_.size());
  std::vector<int> indices(order_.begin() + cursor_, order_.begin() + end);
  cursor_ = end;
  Dataset sub = dataset_.subset(indices);
  return Batch{std::move(sub.images), std::move(sub.labels)};
}

}  // namespace teamnet::data
