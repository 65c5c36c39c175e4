// Dataset substrate tests: determinism, balance, separability, the
// super-cluster structure the specialization experiment depends on, and
// the pinned bytes of the builds at any render chunk count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>

#include "data/blobs.hpp"
#include "data/dataset.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"

namespace teamnet {
namespace {

/// Nearest-centroid classification accuracy — a cheap proxy for "classes
/// are separable in pixel space".
double nearest_centroid_accuracy(const data::Dataset& train,
                                 const data::Dataset& test) {
  const std::int64_t features = train.images.numel() / train.size();
  Tensor train_flat = train.images.reshape({train.size(), features});
  Tensor test_flat = test.images.reshape({test.size(), features});

  std::vector<std::vector<double>> centroids(
      static_cast<std::size_t>(train.num_classes),
      std::vector<double>(static_cast<std::size_t>(features), 0.0));
  std::vector<int> counts(static_cast<std::size_t>(train.num_classes), 0);
  for (std::int64_t i = 0; i < train.size(); ++i) {
    const int y = train.labels[static_cast<std::size_t>(i)];
    ++counts[static_cast<std::size_t>(y)];
    for (std::int64_t f = 0; f < features; ++f) {
      centroids[static_cast<std::size_t>(y)][static_cast<std::size_t>(f)] +=
          train_flat[i * features + f];
    }
  }
  for (int c = 0; c < train.num_classes; ++c) {
    for (auto& v : centroids[static_cast<std::size_t>(c)]) {
      v /= counts[static_cast<std::size_t>(c)];
    }
  }

  std::size_t correct = 0;
  for (std::int64_t i = 0; i < test.size(); ++i) {
    int best = -1;
    double best_dist = 1e300;
    for (int c = 0; c < train.num_classes; ++c) {
      double dist = 0.0;
      for (std::int64_t f = 0; f < features; ++f) {
        const double d =
            test_flat[i * features + f] -
            centroids[static_cast<std::size_t>(c)][static_cast<std::size_t>(f)];
        dist += d * d;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    if (best == test.labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}


/// FNV-1a over the bit patterns of `values`: a pin that moves when any bit
/// of any element does.
std::uint64_t fnv1a(std::span<const float> values,
                    std::uint64_t h = 14695981039346656037ull) {
  for (float v : values) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Images, then labels, of `d`.
std::uint64_t digest(const data::Dataset& d) {
  std::uint64_t h = fnv1a(d.images.values());
  for (int y : d.labels) {
    h ^= static_cast<std::uint32_t>(y);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Dataset, SubsetSplitAndCounts) {
  data::BlobsConfig cfg;
  cfg.num_samples = 100;
  cfg.num_classes = 4;
  auto ds = data::make_blobs(cfg);
  EXPECT_EQ(ds.size(), 100);
  auto counts = ds.class_counts();
  for (int c : counts) EXPECT_EQ(c, 25);

  auto sub = ds.subset({0, 5, 10});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.labels[1], ds.labels[5]);

  auto [a, b] = ds.split(0.8);
  EXPECT_EQ(a.size(), 80);
  EXPECT_EQ(b.size(), 20);
  EXPECT_THROW(ds.subset({1000}), InvariantError);
}

TEST(Dataset, ShuffleIsDeterministicPerSeed) {
  data::BlobsConfig cfg;
  cfg.num_samples = 64;
  auto a = data::make_blobs(cfg);
  auto b = data::make_blobs(cfg);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_TRUE(a.images.allclose(b.images));
}

TEST(BatchIterator, CoversEpochExactlyOnce) {
  data::BlobsConfig cfg;
  cfg.num_samples = 50;
  auto ds = data::make_blobs(cfg);
  data::BatchIterator it(ds, 16);
  EXPECT_EQ(it.batches_per_epoch(), 4);
  std::int64_t seen = 0;
  for (auto b = it.next(); b.size() > 0; b = it.next()) seen += b.size();
  EXPECT_EQ(seen, 50);
  EXPECT_EQ(it.next().size(), 0);  // epoch exhausted
  it.reset();
  EXPECT_EQ(it.next().size(), 16);
}

TEST(BatchIterator, ShufflingChangesOrderButNotContent) {
  data::BlobsConfig cfg;
  cfg.num_samples = 64;
  auto ds = data::make_blobs(cfg);
  Rng rng(5);
  data::BatchIterator it(ds, 64, &rng);
  auto b1 = it.next();
  it.reset();
  auto b2 = it.next();
  // Same multiset of labels, different order (with high probability).
  auto s1 = b1.y, s2 = b2.y;
  EXPECT_NE(b1.y, b2.y);
  std::sort(s1.begin(), s1.end());
  std::sort(s2.begin(), s2.end());
  EXPECT_EQ(s1, s2);
}

TEST(SyntheticMnist, BalancedAndDeterministic) {
  data::MnistConfig cfg;
  cfg.num_samples = 200;
  auto a = data::make_synthetic_mnist(cfg);
  auto b = data::make_synthetic_mnist(cfg);
  EXPECT_EQ(a.num_classes, 10);
  EXPECT_EQ(a.images.shape(), (Shape{200, 28 * 28}));
  for (int c : a.class_counts()) EXPECT_EQ(c, 20);
  EXPECT_TRUE(a.images.allclose(b.images));
  for (float v : a.images.values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SyntheticMnist, ClassesAreSeparable) {
  data::MnistConfig cfg;
  cfg.num_samples = 1200;
  auto ds = data::make_synthetic_mnist(cfg);
  auto [test, train] = ds.split(0.25);
  EXPECT_GT(nearest_centroid_accuracy(train, test), 0.7)
      << "digit templates should separate well above 10% chance";
}

TEST(SyntheticMnist, IntraClassVarianceExists) {
  Rng rng(9);
  Tensor a = data::render_digit(3, 28, rng, 0.05f, 2.0f);
  Tensor b = data::render_digit(3, 28, rng, 0.05f, 2.0f);
  EXPECT_FALSE(a.allclose(b, 1e-3f)) << "two renders must differ";
}

TEST(SyntheticCifar, BalancedShapesAndRange) {
  data::CifarConfig cfg;
  cfg.num_samples = 200;
  cfg.image_size = 16;
  auto ds = data::make_synthetic_cifar(cfg);
  EXPECT_EQ(ds.images.shape(), (Shape{200, 3, 16, 16}));
  for (int c : ds.class_counts()) EXPECT_EQ(c, 20);
  for (float v : ds.images.values()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SyntheticCifar, ClassesAreSeparable) {
  data::CifarConfig cfg;
  cfg.num_samples = 1500;
  auto ds = data::make_synthetic_cifar(cfg);
  auto [test, train] = ds.split(0.2);
  EXPECT_GT(nearest_centroid_accuracy(train, test), 0.6);
}

TEST(SyntheticCifar, SuperClustersSeparateInColorSpace) {
  // Mean blue-channel minus green-channel should split machines (sky/sea
  // backgrounds) from animals (vegetation backgrounds) — the structure
  // Figure 9's specialization result needs.
  data::CifarConfig cfg;
  cfg.num_samples = 500;
  auto ds = data::make_synthetic_cifar(cfg);
  const std::int64_t s = cfg.image_size;
  const std::int64_t plane = s * s;
  double machine_score = 0.0, animal_score = 0.0;
  int machines = 0, animals = 0;
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    const float* img = ds.images.data() + i * 3 * plane;
    double green = 0.0, blue = 0.0;
    for (std::int64_t p = 0; p < plane; ++p) {
      green += img[plane + p];
      blue += img[2 * plane + p];
    }
    const double score = (blue - green) / static_cast<double>(plane);
    if (data::is_machine_class(ds.labels[static_cast<std::size_t>(i)])) {
      machine_score += score;
      ++machines;
    } else {
      animal_score += score;
      ++animals;
    }
  }
  EXPECT_GT(machine_score / machines, animal_score / animals + 0.05)
      << "machines should be bluer than animals on average";
}

TEST(SyntheticCifar, ClassMetadata) {
  EXPECT_EQ(data::cifar_class_name(0), "airplane");
  EXPECT_EQ(data::cifar_class_name(9), "truck");
  EXPECT_TRUE(data::is_machine_class(0));
  EXPECT_TRUE(data::is_machine_class(8));
  EXPECT_FALSE(data::is_machine_class(3));
  EXPECT_THROW(data::cifar_class_name(10), InvariantError);
}

TEST(Blobs, SeparableByConstruction) {
  data::BlobsConfig cfg;
  cfg.num_samples = 800;
  auto ds = data::make_blobs(cfg);
  auto [test, train] = ds.split(0.25);
  EXPECT_GT(nearest_centroid_accuracy(train, test), 0.95);
}

// The pins below were taken from the per-segment-sqrt renderer and the
// copying shuffle/split, so any change to the synthetic data's bits,
// including its Rng draw count, fails here first.
TEST(SyntheticMnist, RenderDigitBitsArePinned) {
  const std::pair<std::int64_t, std::uint64_t> pins[] = {
      {12, 0x098fec9a6e778990ull},
      {13, 0x6bf3479ca054cbb8ull},
      {28, 0xfc1e9b5b203e1346ull},
      {30, 0xdc1cba004cd2d31full}};
  for (const auto& [size, pin] : pins) {
    Rng rng(static_cast<std::uint64_t>(size));
    std::uint64_t h = 14695981039346656037ull;
    for (int digit = 0; digit < 10; ++digit) {
      const Tensor img = data::render_digit(digit, size, rng, 0.08f, 2.0f);
      ASSERT_EQ(img.shape(), (Shape{size, size}));
      h = fnv1a(img.values(), h);
    }
    const float next = rng.uniform();  // the renders' draw count
    h = fnv1a({&next, 1}, h);
    EXPECT_EQ(h, pin) << "size " << size;
  }
}

TEST(SyntheticMnist, DatasetBitsArePinned) {
  const data::Dataset full = data::make_synthetic_mnist({});
  EXPECT_EQ(full.images.shape(), (Shape{4096, 28 * 28}));
  EXPECT_EQ(digest(full), 0x00212aa1c5314db5ull);
  data::MnistConfig quick;
  quick.num_samples = 1200;
  quick.seed = 11;
  const data::Dataset small = data::make_synthetic_mnist(quick);
  EXPECT_EQ(digest(small), 0xb27c5db6932cae1full);
}

TEST(SyntheticCifar, QuickDatasetBitsArePinned) {
  data::CifarConfig quick;
  quick.num_samples = 800;
  quick.image_size = 16;
  quick.seed = 13;
  const data::Dataset ds = data::make_synthetic_cifar(quick);
  EXPECT_EQ(ds.images.shape(), (Shape{800, 3, 16, 16}));
  EXPECT_EQ(digest(ds), 0x998f116dc92c47d1ull);
}

TEST(Dataset, ShuffleAndSplitBitsArePinned) {
  data::BlobsConfig cfg;
  cfg.num_samples = 101;
  data::Dataset ds = data::make_blobs(cfg);
  EXPECT_EQ(digest(ds), 0x2891e21c00f377f0ull);
  const data::Dataset before = ds.subset(Rng(9).permutation(101));
  Rng rng(9);
  ds.shuffle(rng);
  EXPECT_EQ(digest(ds), 0x92c19bf4a90fc008ull);
  EXPECT_EQ(digest(ds), digest(before)) << "in place == subset(permutation)";
  const auto [head, tail] = ds.split(0.2);
  EXPECT_EQ(head.size(), 20);
  EXPECT_EQ(tail.size(), 81);
  EXPECT_EQ(digest(head), 0x0b65952fed0872b4ull);
  EXPECT_EQ(digest(tail), 0x08859ec19ab1e6c7ull);
}

// The builds render on every usable core from snapshots of one walk of the
// stream; every chunk count must make the pinned bytes above.
TEST(SyntheticData, EveryChunkCountMakesThePinnedBytes) {
  data::MnistConfig quick_mnist;
  quick_mnist.num_samples = 1200;
  quick_mnist.seed = 11;
  data::CifarConfig quick_cifar;
  quick_cifar.num_samples = 800;
  quick_cifar.image_size = 16;
  quick_cifar.seed = 13;
  for (const int chunks : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE(testing::Message() << chunks << " chunks");
    EXPECT_EQ(digest(data::detail::make_synthetic_mnist({}, chunks)),
              0x00212aa1c5314db5ull);
    EXPECT_EQ(digest(data::detail::make_synthetic_mnist(quick_mnist, chunks)),
              0xb27c5db6932cae1full);
    EXPECT_EQ(digest(data::detail::make_synthetic_cifar(quick_cifar, chunks)),
              0x998f116dc92c47d1ull);
  }
}

/// What the builds did before they split: each sample rendered in stream
/// order, then the rows shuffled in place.
data::Dataset render_then_shuffle(const data::MnistConfig& c) {
  Rng rng(c.seed);
  data::Dataset d;
  d.num_classes = 10;
  d.images = Tensor({c.num_samples, c.image_size * c.image_size});
  for (std::int64_t i = 0; i < c.num_samples; ++i) {
    const int digit = c.balanced ? static_cast<int>(i % 10) : rng.randint(0, 9);
    d.labels.push_back(digit);
    const Tensor img = data::render_digit(digit, c.image_size, rng,
                                          c.noise_stddev, c.max_jitter);
    std::copy(img.values().begin(), img.values().end(),
              d.images.data() + i * img.numel());
  }
  d.shuffle(rng);
  return d;
}

data::Dataset render_then_shuffle(const data::CifarConfig& c) {
  Rng rng(c.seed);
  data::Dataset d;
  d.num_classes = 10;
  d.images = Tensor({c.num_samples, 3, c.image_size, c.image_size});
  for (std::int64_t i = 0; i < c.num_samples; ++i) {
    const int cls = c.balanced ? static_cast<int>(i % 10) : rng.randint(0, 9);
    d.labels.push_back(cls);
    const Tensor img =
        data::render_cifar_sample(cls, c.image_size, rng, c.noise_stddev);
    std::copy(img.values().begin(), img.values().end(),
              d.images.data() + i * img.numel());
  }
  d.shuffle(rng);
  return d;
}

// Unbalanced sets draw each label inside the walk, odd sizes move where
// the draws fall in a block, and fewer samples than chunks leaves chunks
// empty.
TEST(SyntheticData, ChunkedBuildsEqualRenderThenShuffle) {
  for (const bool balanced : {true, false}) {
    for (const std::int64_t n : {3, 37}) {
      data::MnistConfig mc;
      mc.num_samples = n;
      mc.image_size = 13;
      mc.seed = 5;
      mc.balanced = balanced;
      data::CifarConfig cc;
      cc.num_samples = n;
      cc.image_size = 9;
      cc.seed = 6;
      cc.balanced = balanced;
      const std::uint64_t mnist = digest(render_then_shuffle(mc));
      const std::uint64_t cifar = digest(render_then_shuffle(cc));
      for (const int chunks : {1, 2, 3, 4, 7}) {
        SCOPED_TRACE(testing::Message() << "balanced " << balanced << " n "
                                        << n << " chunks " << chunks);
        EXPECT_EQ(digest(data::detail::make_synthetic_mnist(mc, chunks)), mnist);
        EXPECT_EQ(digest(data::detail::make_synthetic_cifar(cc, chunks)), cifar);
      }
    }
  }
}

/// Every range asked of `build(chunks, begin, end)` at 1, 2, 3, 4 and 7
/// chunks holds the full build's rows, byte for byte.
template <class Build>
void expect_ranges_equal_full_rows(const data::Dataset& full,
                                   const Build& build) {
  const std::int64_t n = full.size();
  const std::int64_t cut = data::split_row(n, 0.2);
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, cut}, {cut, n}, {0, n}, {n / 2, n / 2 + 1}, {7, 7}};
  for (const int chunks : {1, 2, 3, 4, 7}) {
    for (const auto& [begin, end] : ranges) {
      SCOPED_TRACE(testing::Message() << chunks << " chunks, rows [" << begin
                                      << ", " << end << ")");
      const data::Dataset part = build(chunks, begin, end);
      std::vector<int> rows(static_cast<std::size_t>(end - begin));
      std::iota(rows.begin(), rows.end(), static_cast<int>(begin));
      const data::Dataset want = full.subset(rows);
      EXPECT_EQ(part.images.shape(), want.images.shape());
      EXPECT_EQ(part.labels, want.labels);
      EXPECT_EQ(part.num_classes, 10);
      EXPECT_EQ(digest(part), digest(want));
    }
  }
}

// A range renders only its rows and walks the rest of the stream, so each
// row is the full build's row whatever the range or the chunk count.
TEST(SyntheticData, RowRangesEqualTheFullBuildsRows) {
  data::MnistConfig quick_mnist;
  quick_mnist.num_samples = 1200;
  quick_mnist.seed = 11;
  data::CifarConfig quick_cifar;
  quick_cifar.num_samples = 800;
  quick_cifar.image_size = 16;
  quick_cifar.seed = 13;
  for (const data::MnistConfig& mc : {data::MnistConfig{}, quick_mnist}) {
    expect_ranges_equal_full_rows(
        data::make_synthetic_mnist(mc),
        [&mc](int chunks, std::int64_t begin, std::int64_t end) {
          return data::detail::make_synthetic_mnist(mc, chunks, begin, end);
        });
  }
  expect_ranges_equal_full_rows(
      data::make_synthetic_cifar(quick_cifar),
      [&](int chunks, std::int64_t begin, std::int64_t end) {
        return data::detail::make_synthetic_cifar(quick_cifar, chunks, begin,
                                                  end);
      });

  // The benches' --quick test splits, as a serving set-up builds them.
  EXPECT_EQ(digest(data::make_synthetic_mnist(quick_mnist, 0, 240)),
            0xcaf51d20b6c271eaull);
  EXPECT_EQ(digest(data::make_synthetic_cifar(quick_cifar, 0, 160)),
            0x96453bd964ef992bull);

  EXPECT_THROW(data::make_synthetic_mnist(quick_mnist, -1, 10), InvariantError);
  EXPECT_THROW(data::make_synthetic_mnist(quick_mnist, 10, 9), InvariantError);
  EXPECT_THROW(data::make_synthetic_mnist(quick_mnist, 0, 1201),
               InvariantError);
  EXPECT_THROW(data::make_synthetic_cifar(quick_cifar, 800, 801),
               InvariantError);
}

TEST(Dataset, SplitHalvesAreViewsEqualToSubsets) {
  data::MnistConfig quick;
  quick.num_samples = 1200;
  quick.seed = 11;
  const data::Dataset all = data::make_synthetic_mnist(quick);
  std::vector<int> first(240), second(960);
  std::iota(first.begin(), first.end(), 0);
  std::iota(second.begin(), second.end(), 240);
  const data::Dataset test_copy = all.subset(first);
  const data::Dataset train_copy = all.subset(second);
  auto [test, train] = all.split(0.2);
  EXPECT_EQ(test.images.shape(), test_copy.images.shape());
  EXPECT_EQ(train.images.shape(), train_copy.images.shape());
  EXPECT_EQ(digest(test), digest(test_copy));
  EXPECT_EQ(digest(train), digest(train_copy));
  EXPECT_EQ(test.num_classes, 10);
  EXPECT_EQ(train.num_classes, 10);
  // Views of the one buffer, not copies.
  EXPECT_EQ(test.images.data(), all.images.data());
  EXPECT_EQ(train.images.data(), all.images.data() + 240 * 28 * 28);
  // Writing through one half leaves the other alone.
  test.images.fill(0.5f);
  EXPECT_EQ(digest(train), digest(train_copy));
}

TEST(Dataset, ValidateCatchesBadLabels) {
  data::Dataset ds;
  ds.images = Tensor({2, 3});
  ds.labels = {0, 5};
  ds.num_classes = 2;
  EXPECT_THROW(ds.validate(), InvariantError);
}

}  // namespace
}  // namespace teamnet
