#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bauplan {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value = Next();
  while (value >= limit) value = Next();
  return lo + static_cast<int64_t>(value % range);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double lambda) {
  assert(lambda > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::Pareto(double xmin, double alpha) {
  assert(xmin > 0 && alpha > 0);
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return xmin * std::pow(u, -1.0 / alpha);
}

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n), s_(s) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    total += std::pow(static_cast<double>(k), -s);
    cdf_[k - 1] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::Pmf(uint64_t k) const {
  assert(k >= 1 && k <= n_);
  if (k == 1) return cdf_[0];
  return cdf_[k - 1] - cdf_[k - 2];
}

}  // namespace bauplan
