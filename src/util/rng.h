// Deterministic random number generation for workload synthesis.
//
// All stochastic behaviour in sdsched flows through Rng so that a (model,
// seed) pair reproduces bit-identical workloads and therefore bit-identical
// simulation results on any platform. We deliberately avoid <random>'s
// distributions, whose outputs are implementation-defined, and implement the
// few distributions the workload models need on top of xoshiro256**.
#pragma once

#include <cstdint>
#include <span>

namespace sdsched {

/// xoshiro256** seeded via SplitMix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability) noexcept;

  /// Standard normal via Box-Muller (deterministic; caches the spare value).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(N(mu, sigma)). Parameters are of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Index into `weights` with probability proportional to each weight.
  /// Requires a non-empty span with a positive sum.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Derive an independent child stream (e.g. one per workload component).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace sdsched
