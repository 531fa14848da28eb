// Statistics collection: named counters and log2-bucketed histograms.
//
// Components register counters/histograms against a StatsRegistry by name;
// handles are stable for the registry's lifetime (deque storage). The
// registry can render a human-readable report and expose raw values to
// tests and benchmark harnesses.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace bcsim::sim {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Histogram with 64 power-of-two buckets plus exact sum/count/min/max.
/// Bucket i counts samples with bit_width(sample) == i (bucket 0: sample 0).
class Histogram {
 public:
  void record(std::uint64_t sample) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  /// Approximate quantile from the log2 buckets (midpoint interpolation).
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept { return buckets_.at(i); }

  void reset() noexcept;

 private:
  std::array<std::uint64_t, 65> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

/// Owning registry of named statistics. Names are hierarchical by
/// convention ("net.messages", "cache3.hits"); iteration is sorted.
class StatsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  Counter& counter(std::string_view name);
  /// Returns the histogram registered under `name`, creating it on first use.
  Histogram& histogram(std::string_view name);

  /// Value of a counter, or 0 if it was never registered (reads don't
  /// create; useful for tests that assert "nothing of kind X happened").
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Sums all counters whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t sum_by_prefix(std::string_view prefix) const;

  /// Human-readable dump of every statistic, sorted by name.
  void report(std::ostream& os) const;

  /// Machine-readable dump: one `kind,name,field,value` row per datum
  /// (counters: value; histograms: count/sum/min/max/mean/p50/p99).
  void write_csv(std::ostream& os) const;

  /// Order-independent FNV-1a fingerprint of every counter value and every
  /// histogram's exact moments (count/sum/min/max; derived doubles are
  /// excluded). Two runs of the same configuration must produce the same
  /// digest on any host — the bench harness and the determinism tests gate
  /// on it (docs/BENCHMARKS.md).
  [[nodiscard]] std::uint64_t digest() const noexcept;

  void reset_all() noexcept;

 private:
  std::deque<Counter> counter_storage_;
  std::deque<Histogram> histogram_storage_;
  std::map<std::string, Counter*, std::less<>> counters_;
  std::map<std::string, Histogram*, std::less<>> histograms_;
};

}  // namespace bcsim::sim
