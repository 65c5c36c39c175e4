#include "data/synthetic_cifar.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "data/synthetic_build.hpp"

namespace teamnet::data {

namespace {

struct Rgb {
  float r, g, b;
};

/// Unit-coordinate painter over one [3, S, S] image, zeroed first. A
/// canvas without an image paints nothing but makes every draw a painted
/// one makes, so a walk of the stream runs the renderers' own code: the
/// painters draw inside their call arguments, in an order the compiler
/// chooses.
class Canvas {
 public:
  Canvas(std::int64_t size, Rng& rng, float* img)
      : size_(size), rng_(rng), img_(img) {
    if (img_ != nullptr) std::fill_n(img_, 3 * size_ * size_, 0.0f);
  }

  void finish(float noise_stddev) {
    const std::int64_t n = 3 * size_ * size_;
    if (img_ == nullptr) {
      rng_.skip_normals(n);
      return;
    }
    for (std::int64_t i = 0; i < n; ++i) {
      img_[i] =
          std::clamp(img_[i] + rng_.normal(0.0f, noise_stddev), 0.0f, 1.0f);
    }
  }

  /// Vertical gradient from `top` to `bottom` over rows [y0, y1) (unit).
  void vertical_gradient(float y0, float y1, Rgb top, Rgb bottom) {
    if (img_ == nullptr) return;
    const std::int64_t r0 = row(y0), r1 = row(y1);
    for (std::int64_t y = r0; y < r1; ++y) {
      const float t = r1 > r0 + 1
                          ? static_cast<float>(y - r0) / static_cast<float>(r1 - r0 - 1)
                          : 0.0f;
      const Rgb c = {top.r + t * (bottom.r - top.r), top.g + t * (bottom.g - top.g),
                     top.b + t * (bottom.b - top.b)};
      for (std::int64_t x = 0; x < size_; ++x) set(x, y, c);
    }
  }

  /// Per-pixel mottled fill (organic texture) over the whole canvas.
  void textured_fill(Rgb base, float variation) {
    for (std::int64_t y = 0; y < size_; ++y) {
      for (std::int64_t x = 0; x < size_; ++x) {
        const float v = rng_.uniform(-variation, variation);
        if (img_ != nullptr) {
          set(x, y, {base.r + v, base.g + v * 0.7f, base.b + v * 0.4f});
        }
      }
    }
  }

  void fill_rect(float x0, float y0, float x1, float y1, Rgb c) {
    if (img_ == nullptr) return;
    for (std::int64_t y = row(y0); y < row(y1); ++y) {
      for (std::int64_t x = col(x0); x < col(x1); ++x) set(x, y, c);
    }
  }

  void fill_ellipse(float cx, float cy, float rx, float ry, Rgb c) {
    if (img_ == nullptr) return;
    for (std::int64_t y = 0; y < size_; ++y) {
      for (std::int64_t x = 0; x < size_; ++x) {
        const float dx = (unit(x) - cx) / rx;
        const float dy = (unit(y) - cy) / ry;
        if (dx * dx + dy * dy <= 1.0f) set(x, y, c);
      }
    }
  }

  void fill_triangle_up(float cx, float base_y, float half_w, float height,
                        Rgb c) {
    if (img_ == nullptr) return;
    for (std::int64_t y = row(base_y - height); y < row(base_y); ++y) {
      const float frac = (base_y - unit(y)) / height;  // 1 at apex, 0 at base
      const float hw = half_w * (1.0f - frac);
      for (std::int64_t x = col(cx - hw); x < col(cx + hw); ++x) set(x, y, c);
    }
  }

 private:
  std::int64_t row(float y) const {
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::lround(y * static_cast<float>(size_))), 0,
        size_);
  }
  std::int64_t col(float x) const { return row(x); }
  float unit(std::int64_t p) const {
    return (static_cast<float>(p) + 0.5f) / static_cast<float>(size_);
  }
  void set(std::int64_t x, std::int64_t y, Rgb c) {
    if (x < 0 || x >= size_ || y < 0 || y >= size_) return;
    img_[0 * size_ * size_ + y * size_ + x] = std::clamp(c.r, 0.0f, 1.0f);
    img_[1 * size_ * size_ + y * size_ + x] = std::clamp(c.g, 0.0f, 1.0f);
    img_[2 * size_ * size_ + y * size_ + x] = std::clamp(c.b, 0.0f, 1.0f);
  }

  std::int64_t size_;
  Rng& rng_;
  float* img_;
};

Rgb jitter(Rgb c, Rng& rng, float amount = 0.08f) {
  return {c.r + rng.uniform(-amount, amount), c.g + rng.uniform(-amount, amount),
          c.b + rng.uniform(-amount, amount)};
}

const std::array<std::string, 10> kClassNames = {
    "airplane", "automobile", "bird", "cat",  "deer",
    "dog",      "frog",       "horse", "ship", "truck"};

// ---- machine renderers ------------------------------------------------------

void draw_airplane(Canvas& canvas, Rng& rng) {
  canvas.vertical_gradient(0.0f, 1.0f, jitter({0.45f, 0.65f, 0.95f}, rng),
                           jitter({0.70f, 0.82f, 0.98f}, rng));
  const float cy = rng.uniform(0.35f, 0.55f);
  const float cx = rng.uniform(0.40f, 0.60f);
  const Rgb body = jitter({0.82f, 0.84f, 0.88f}, rng);
  canvas.fill_ellipse(cx, cy, rng.uniform(0.30f, 0.40f), 0.07f, body);   // fuselage
  canvas.fill_rect(cx - 0.08f, cy - 0.22f, cx + 0.08f, cy + 0.22f, body);  // wings
  canvas.fill_rect(cx + 0.24f, cy - 0.12f, cx + 0.32f, cy, body);          // tail
}

void draw_automobile(Canvas& canvas, Rng& rng) {
  canvas.vertical_gradient(0.0f, 0.65f, jitter({0.55f, 0.70f, 0.92f}, rng),
                           jitter({0.70f, 0.80f, 0.95f}, rng));
  canvas.vertical_gradient(0.65f, 1.0f, jitter({0.45f, 0.45f, 0.48f}, rng),
                           jitter({0.35f, 0.35f, 0.38f}, rng));  // road
  const Rgb paint = jitter({0.75f, 0.20f, 0.22f}, rng, 0.15f);
  const float cx = rng.uniform(0.42f, 0.58f);
  canvas.fill_rect(cx - 0.30f, 0.50f, cx + 0.30f, 0.68f, paint);          // body
  canvas.fill_rect(cx - 0.16f, 0.38f, cx + 0.16f, 0.52f, paint);          // cabin
  const Rgb wheel = {0.08f, 0.08f, 0.10f};
  canvas.fill_ellipse(cx - 0.18f, 0.70f, 0.07f, 0.07f, wheel);
  canvas.fill_ellipse(cx + 0.18f, 0.70f, 0.07f, 0.07f, wheel);
}

void draw_ship(Canvas& canvas, Rng& rng) {
  canvas.vertical_gradient(0.0f, 0.55f, jitter({0.55f, 0.72f, 0.95f}, rng),
                           jitter({0.65f, 0.80f, 0.97f}, rng));
  canvas.vertical_gradient(0.55f, 1.0f, jitter({0.10f, 0.25f, 0.55f}, rng),
                           jitter({0.05f, 0.15f, 0.40f}, rng));  // sea
  const Rgb hull = jitter({0.50f, 0.52f, 0.58f}, rng);
  const float cx = rng.uniform(0.42f, 0.58f);
  canvas.fill_rect(cx - 0.28f, 0.50f, cx + 0.28f, 0.64f, hull);           // hull
  canvas.fill_rect(cx - 0.12f, 0.36f, cx + 0.12f, 0.52f,
                   jitter({0.85f, 0.85f, 0.88f}, rng));                   // cabin
  canvas.fill_rect(cx - 0.02f, 0.20f, cx + 0.02f, 0.38f, {0.30f, 0.30f, 0.32f});
}

void draw_truck(Canvas& canvas, Rng& rng) {
  canvas.vertical_gradient(0.0f, 0.60f, jitter({0.55f, 0.70f, 0.92f}, rng),
                           jitter({0.68f, 0.78f, 0.94f}, rng));
  canvas.vertical_gradient(0.60f, 1.0f, jitter({0.42f, 0.42f, 0.45f}, rng),
                           jitter({0.33f, 0.33f, 0.36f}, rng));
  const Rgb box = jitter({0.80f, 0.78f, 0.30f}, rng, 0.12f);
  const float cx = rng.uniform(0.42f, 0.58f);
  canvas.fill_rect(cx - 0.32f, 0.30f, cx + 0.12f, 0.66f, box);            // cargo
  canvas.fill_rect(cx + 0.12f, 0.44f, cx + 0.32f, 0.66f,
                   jitter({0.25f, 0.35f, 0.60f}, rng));                   // cab
  const Rgb wheel = {0.08f, 0.08f, 0.10f};
  canvas.fill_ellipse(cx - 0.20f, 0.68f, 0.07f, 0.07f, wheel);
  canvas.fill_ellipse(cx + 0.20f, 0.68f, 0.07f, 0.07f, wheel);
}

// ---- animal renderers -------------------------------------------------------

void organic_background(Canvas& canvas, Rng& rng, Rgb base) {
  canvas.textured_fill(jitter(base, rng, 0.06f), 0.10f);
}

void draw_bird(Canvas& canvas, Rng& rng) {
  organic_background(canvas, rng, {0.35f, 0.55f, 0.25f});
  const float cx = rng.uniform(0.40f, 0.60f), cy = rng.uniform(0.40f, 0.55f);
  const Rgb body = jitter({0.70f, 0.45f, 0.25f}, rng, 0.12f);
  canvas.fill_ellipse(cx, cy, 0.16f, 0.11f, body);                        // body
  canvas.fill_ellipse(cx + 0.14f, cy - 0.08f, 0.07f, 0.06f, body);        // head
  canvas.fill_triangle_up(cx - 0.04f, cy + 0.02f, 0.10f, 0.14f,
                          jitter({0.50f, 0.30f, 0.18f}, rng));            // wing
}

void draw_cat(Canvas& canvas, Rng& rng) {
  organic_background(canvas, rng, {0.40f, 0.50f, 0.28f});
  const float cx = rng.uniform(0.40f, 0.60f), cy = rng.uniform(0.50f, 0.62f);
  const Rgb fur = jitter({0.55f, 0.42f, 0.30f}, rng, 0.12f);
  canvas.fill_ellipse(cx, cy, 0.20f, 0.16f, fur);                         // body
  canvas.fill_ellipse(cx, cy - 0.22f, 0.11f, 0.10f, fur);                 // head
  canvas.fill_triangle_up(cx - 0.07f, cy - 0.28f, 0.04f, 0.08f, fur);     // ears
  canvas.fill_triangle_up(cx + 0.07f, cy - 0.28f, 0.04f, 0.08f, fur);
}

void draw_deer(Canvas& canvas, Rng& rng) {
  organic_background(canvas, rng, {0.38f, 0.48f, 0.22f});
  const float cx = rng.uniform(0.42f, 0.58f);
  const Rgb hide = jitter({0.58f, 0.40f, 0.22f}, rng, 0.10f);
  canvas.fill_ellipse(cx, 0.45f, 0.18f, 0.12f, hide);                     // body
  canvas.fill_ellipse(cx + 0.16f, 0.30f, 0.07f, 0.07f, hide);             // head
  canvas.fill_rect(cx - 0.12f, 0.52f, cx - 0.07f, 0.80f, hide);           // legs
  canvas.fill_rect(cx + 0.07f, 0.52f, cx + 0.12f, 0.80f, hide);
  canvas.fill_rect(cx + 0.18f, 0.12f, cx + 0.21f, 0.26f,
                   jitter({0.40f, 0.30f, 0.18f}, rng));                   // antler
}

void draw_dog(Canvas& canvas, Rng& rng) {
  organic_background(canvas, rng, {0.42f, 0.46f, 0.26f});
  const float cx = rng.uniform(0.40f, 0.60f), cy = rng.uniform(0.50f, 0.60f);
  const Rgb coat = jitter({0.48f, 0.34f, 0.20f}, rng, 0.14f);
  canvas.fill_ellipse(cx, cy, 0.22f, 0.14f, coat);                        // body
  canvas.fill_ellipse(cx - 0.20f, cy - 0.12f, 0.10f, 0.09f, coat);        // head
  canvas.fill_ellipse(cx - 0.26f, cy - 0.20f, 0.04f, 0.06f, coat);        // ear
  canvas.fill_rect(cx + 0.18f, cy - 0.10f, cx + 0.24f, cy,
                   jitter({0.40f, 0.28f, 0.16f}, rng));                   // tail
}

void draw_frog(Canvas& canvas, Rng& rng) {
  organic_background(canvas, rng, {0.25f, 0.45f, 0.30f});
  const float cx = rng.uniform(0.42f, 0.58f), cy = rng.uniform(0.55f, 0.65f);
  const Rgb skin = jitter({0.30f, 0.65f, 0.25f}, rng, 0.10f);
  canvas.fill_ellipse(cx, cy, 0.24f, 0.13f, skin);                        // body
  canvas.fill_ellipse(cx - 0.10f, cy - 0.12f, 0.05f, 0.05f, skin);        // eyes
  canvas.fill_ellipse(cx + 0.10f, cy - 0.12f, 0.05f, 0.05f, skin);
  canvas.fill_ellipse(cx - 0.22f, cy + 0.10f, 0.07f, 0.04f, skin);        // legs
  canvas.fill_ellipse(cx + 0.22f, cy + 0.10f, 0.07f, 0.04f, skin);
}

void draw_horse(Canvas& canvas, Rng& rng) {
  organic_background(canvas, rng, {0.40f, 0.52f, 0.24f});
  const float cx = rng.uniform(0.42f, 0.58f);
  const Rgb coat = jitter({0.42f, 0.28f, 0.18f}, rng, 0.10f);
  canvas.fill_ellipse(cx, 0.42f, 0.22f, 0.13f, coat);                     // body
  canvas.fill_ellipse(cx + 0.20f, 0.26f, 0.08f, 0.07f, coat);             // head
  canvas.fill_rect(cx + 0.16f, 0.18f, cx + 0.20f, 0.30f, coat);           // neck
  canvas.fill_rect(cx - 0.16f, 0.50f, cx - 0.11f, 0.85f, coat);           // legs
  canvas.fill_rect(cx - 0.02f, 0.50f, cx + 0.03f, 0.85f, coat);
  canvas.fill_rect(cx + 0.12f, 0.50f, cx + 0.17f, 0.85f, coat);
}

/// render_cifar_sample into `img` (3·S·S floats, all written), or with
/// img == nullptr only its draws.
void render_cifar_into(float* img, int cls, std::int64_t image_size, Rng& rng,
                       float noise_stddev) {
  Canvas canvas(image_size, rng, img);
  switch (cls) {
    case 0: draw_airplane(canvas, rng); break;
    case 1: draw_automobile(canvas, rng); break;
    case 2: draw_bird(canvas, rng); break;
    case 3: draw_cat(canvas, rng); break;
    case 4: draw_deer(canvas, rng); break;
    case 5: draw_dog(canvas, rng); break;
    case 6: draw_frog(canvas, rng); break;
    case 7: draw_horse(canvas, rng); break;
    case 8: draw_ship(canvas, rng); break;
    case 9: draw_truck(canvas, rng); break;
    default: throw InvalidArgument("bad class id");
  }
  canvas.finish(noise_stddev);
}

}  // namespace

const std::string& cifar_class_name(int cls) {
  TEAMNET_CHECK(cls >= 0 && cls < 10);
  return kClassNames[static_cast<std::size_t>(cls)];
}

bool is_machine_class(int cls) {
  return cls == 0 || cls == 1 || cls == 8 || cls == 9;
}

Tensor render_cifar_sample(int cls, std::int64_t image_size, Rng& rng,
                           float noise_stddev) {
  TEAMNET_CHECK(cls >= 0 && cls < 10 && image_size >= 8);
  Tensor img({3, image_size, image_size}, uninitialized);
  render_cifar_into(img.data(), cls, image_size, rng, noise_stddev);
  return img;
}

Dataset make_synthetic_cifar(const CifarConfig& config) {
  return make_synthetic_cifar(config, 0, config.num_samples);
}

Dataset make_synthetic_cifar(const CifarConfig& config, std::int64_t begin,
                             std::int64_t end) {
  return detail::make_synthetic_cifar(config, detail::default_build_chunks(),
                                      begin, end);
}

namespace detail {

Dataset make_synthetic_cifar(const CifarConfig& config, int chunks) {
  return make_synthetic_cifar(config, chunks, 0, config.num_samples);
}

Dataset make_synthetic_cifar(const CifarConfig& config, int chunks,
                             std::int64_t begin, std::int64_t end) {
  TEAMNET_CHECK(config.num_samples > 0 && config.image_size >= 8);
  const std::int64_t s = config.image_size;
  return build_synthetic(
      config.num_samples, {3, s, s}, config.seed, config.balanced, chunks,
      begin, end,
      [&](Rng& rng, int cls) {
        render_cifar_into(nullptr, cls, s, rng, config.noise_stddev);
      },
      [&](Rng& rng, int cls, float* row) {
        render_cifar_into(row, cls, s, rng, config.noise_stddev);
      });
}

}  // namespace detail

}  // namespace teamnet::data
