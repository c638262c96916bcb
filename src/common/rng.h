#ifndef BAUPLAN_COMMON_RNG_H_
#define BAUPLAN_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace bauplan {

/// Deterministic pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. All simulation in this codebase draws from Rng so that every
/// experiment is reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);

  /// Exponential with rate lambda (> 0).
  double Exponential(double lambda);

  /// Standard normal via Box-Muller; then scaled to (mean, stddev).
  double Normal(double mean, double stddev);

  /// Pareto (type I) sample: xmin * U^(-1/alpha) with tail index alpha > 0.
  /// This is the heavy-tailed distribution the paper's Fig. 1 workloads
  /// follow (power-law with CCDF (x/xmin)^-alpha for x >= xmin).
  double Pareto(double xmin, double alpha);

 private:
  uint64_t state_[4];
};

/// Zipf(s) sampler over ranks {1..n}: P(k) proportional to k^-s.
/// Used for package-popularity simulation (SOCK-style power law in package
/// utilization, paper section 4.5). Precomputes the CDF once; sampling is a
/// binary search.
class ZipfDistribution {
 public:
  /// Builds the distribution over n ranks with exponent s > 0.
  ZipfDistribution(uint64_t n, double s);

  /// Draws a rank in [1, n].
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  /// The probability mass of rank k (1-based).
  double Pmf(uint64_t k) const;

 private:
  uint64_t n_;
  double s_;
  std::vector<double> cdf_;
};

}  // namespace bauplan

#endif  // BAUPLAN_COMMON_RNG_H_
