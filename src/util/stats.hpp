// Streaming and batch summary statistics.
#pragma once

#include <cstddef>
#include <vector>

namespace sdnbuf::util {

// Streaming accumulator (Welford's algorithm): mean/variance/min/max without
// storing samples. Suitable for per-run meters.
class Summary {
 public:
  void add(double x);

  // Merges another summary into this one (parallel Welford combination).
  void merge(const Summary& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  // Sample variance / standard deviation (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Batch statistics over stored samples; supports percentiles.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  void reserve(std::size_t n) { xs_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  // Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] Summary summary() const;
  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

  // Same samples in the same order (exact doubles).
  friend bool operator==(const Samples&, const Samples&) = default;

 private:
  std::vector<double> xs_;
};

}  // namespace sdnbuf::util
