// In-memory labeled dataset plus batching utilities.
#pragma once

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace teamnet::data {

struct Dataset {
  Tensor images;            ///< [N, ...] — feature layout is model-specific
  std::vector<int> labels;  ///< size N, values in [0, num_classes)
  int num_classes = 0;

  std::int64_t size() const { return static_cast<std::int64_t>(labels.size()); }

  /// Per-sample feature shape (images.shape() without the batch dim).
  Shape sample_shape() const;

  /// Rows selected by `indices` (copies).
  Dataset subset(const std::vector<int>& indices) const;

  /// First `n` samples after the dataset's current order.
  Dataset take(std::int64_t n) const;

  /// Randomly reorders samples in place: row i becomes row
  /// rng.permutation(size())[i], with one row of scratch. Like any write to
  /// a Tensor, a copy that shares `images`' buffer sees the rows move.
  void shuffle(Rng& rng);

  /// Splits into (first `frac` of samples, rest). Call shuffle first for a
  /// random split. Each half's images are a view of this dataset's buffer
  /// (Tensor::slice_rows), so splitting never holds the images twice; like
  /// any Tensor copy, a write through a half shows in this dataset.
  std::pair<Dataset, Dataset> split(double frac) const;

  /// Number of samples per class.
  std::vector<int> class_counts() const;

  /// Throws InvariantError when sizes/labels are inconsistent.
  void validate() const;
};

/// The row where split(frac) cuts a set of n rows: the first half is rows
/// [0, split_row(n, frac)). A build of only one half asks for the same row.
std::int64_t split_row(std::int64_t n, double frac);

/// One minibatch.
struct Batch {
  Tensor x;
  std::vector<int> y;
  std::int64_t size() const { return static_cast<std::int64_t>(y.size()); }
};

/// Iterates a dataset in minibatches; reshuffles at the start of every epoch
/// when constructed with an Rng (Algorithm 1 lines 2-4).
class BatchIterator {
 public:
  BatchIterator(const Dataset& dataset, std::int64_t batch_size,
                Rng* rng = nullptr);

  /// Next batch, or a batch of size 0 at the end of the epoch.
  Batch next();

  /// Restarts the epoch (reshuffling when an Rng was supplied).
  void reset();

  std::int64_t batches_per_epoch() const;

 private:
  const Dataset& dataset_;
  std::int64_t batch_size_;
  Rng* rng_;
  std::vector<int> order_;
  std::int64_t cursor_ = 0;
};

}  // namespace teamnet::data
