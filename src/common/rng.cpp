#include "common/rng.hpp"

namespace teamnet {

namespace {

// std::mt19937_64's parameters.
constexpr std::size_t kN = Mt64Engine::kBlockWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb502'6f5a'a966'19e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One word of the twist. libstdc++ writes the last term as
/// `(y & 1) ? a : 0`, a branch taken at random; the mask is the same value.
std::uint64_t twist(std::uint64_t word, std::uint64_t next, std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

}  // namespace

Mt64Engine::Mt64Engine(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt64Engine::refill() {
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k) x[k] = twist(x[k], x[k + 1], x[k + kM]);
  // Words 156..310 read words 0..154, rewritten above. That is an odd trip
  // count, and GCC's -O2 vectorizer takes no loop that needs a scalar
  // epilogue, so the loop stops one word short and the last word runs on
  // its own.
  for (std::size_t k = kN - kM; k < kN - 2; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k - (kN - kM)]);
  }
  x[kN - 2] = twist(x[kN - 2], x[kN - 1], x[kM - 2]);
  x[kN - 1] = twist(x[kN - 1], x[0], x[kM - 1]);
  for (std::size_t k = 0; k < kN; ++k) {
    std::uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555'5555'5555'5555ULL;
    z ^= (z << 17) & 0x71d6'7fff'eda6'0000ULL;
    z ^= (z << 37) & 0xfff7'eee0'0000'0000ULL;
    z ^= z >> 43;
    block_[k] = z;
  }
  next_ = 0;
}

}  // namespace teamnet
