// Runtime metrics: named counters, gauges and log2-bucketed histograms,
// owned by a `MetricsRegistry` and snapshot-exportable as a JSON time
// series.
//
// Design contract (DESIGN.md §10): components never pay for observability
// they did not ask for. Hot paths hold nullable pointers to instruments —
// a disabled run performs exactly one pointer comparison per potential
// observation, the same pattern as `verify::Observer`. Instruments are
// registered once per component at wiring time (string hashing happens
// there, never per event); an increment is then a couple of integer adds.
//
// The registry additionally supports *poll gauges*: callbacks sampled only
// when a snapshot is taken, which turn the repo's existing per-component
// counters (SwitchCounters, MessageCounters, OccupancyTracker, ...) into
// time series at literally zero hot-path cost.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sdnbuf::obs {

// Monotonic event count. Cumulative in snapshots (Prometheus-style), so
// rates are recoverable by differencing adjacent rows.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

// Last-written value; snapshots record whatever was set most recently.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Log2-bucketed histogram over non-negative values.
//
// Bucket 0 covers [0, unit); bucket i >= 1 covers [unit*2^(i-1), unit*2^i).
// The last bucket is the overflow bucket: it additionally absorbs every
// value beyond its lower bound, and quantile estimation clamps into the
// observed [min, max] so overflow never fabricates impossible values.
// Recording costs an exponent extraction and two adds — cheap enough for
// per-packet paths. Quantiles interpolate linearly within a bucket, so the
// estimate's relative error is bounded by the bucket width (a factor of 2).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  // `unit` is the width of the first bucket (the measurement resolution).
  explicit Histogram(double unit = 1.0);

  void record(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double unit() const { return unit_; }

  // Estimated percentile, p in [0, 100] (same convention as
  // util::Samples::percentile). 0 when empty.
  [[nodiscard]] double quantile(double p) const;

  // Observations recorded into the overflow (last) bucket.
  [[nodiscard]] std::uint64_t overflow_count() const { return buckets_[kBuckets - 1]; }

  // Inclusive lower / exclusive upper bound of a bucket (upper bound of the
  // overflow bucket is +infinity).
  [[nodiscard]] static double lower_bound(std::size_t bucket, double unit);
  [[nodiscard]] static double upper_bound(std::size_t bucket, double unit);

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  // Adds another histogram's observations; both must share the same unit.
  void merge(const Histogram& other);
  void reset();

 private:
  double unit_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

// Name -> instrument registry with periodic snapshots.
//
// Instruments live in deques so registration never invalidates the raw
// pointers components hold. Snapshot rows record every counter (cumulative
// value), gauge, and poll callback at one sim-time instant; histograms are
// exported once, in full, at write_json time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name: re-registering an existing name returns the same
  // instrument (so two components may share one by agreement).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, double unit = 1.0);

  // Registers a callback sampled at snapshot time. Polls typically capture
  // references into a live testbed; the experiment runner clears them before
  // the testbed dies (clear_polls), after which the recorded rows remain.
  void register_poll(const std::string& name, std::function<double()> poll);
  void clear_polls();

  // Freeform metadata emitted under "meta" in the JSON (mechanism label,
  // rate, seed, snapshot interval, ...).
  void set_meta(const std::string& key, const std::string& value);

  // Appends one snapshot row at sim time `now`.
  void take_snapshot(sim::SimTime now);

  [[nodiscard]] std::size_t snapshot_count() const { return snapshots_.size(); }

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  // Value of a named column in snapshot row `row` (counters, gauges and
  // polls share one namespace here); nullopt for unknown names.
  [[nodiscard]] std::optional<double> snapshot_value(std::size_t row,
                                                     const std::string& name) const;
  [[nodiscard]] sim::SimTime snapshot_time(std::size_t row) const;

  // Full JSON document: meta, column names, snapshot rows, histograms.
  void write_json(std::ostream& out) const;

  // Drops every instrument, poll, snapshot and meta entry.
  void reset();

 private:
  struct SnapshotRow {
    sim::SimTime t;
    std::vector<double> values;  // counters, then gauges, then polls
  };

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<std::function<double()>> polls_;
  std::deque<Histogram> histograms_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> poll_names_;
  std::vector<std::string> histogram_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<SnapshotRow> snapshots_;
};

// Periodic snapshot driver: takes a registry snapshot every `interval` of
// simulation time. `stop()` cancels the pending tick so a drained simulator
// can terminate (same obligation as Switch::stop for housekeeping).
class MetricsSnapshotter {
 public:
  MetricsSnapshotter(sim::Simulator& sim, MetricsRegistry& registry, sim::SimTime interval);

  // Takes an immediate snapshot and schedules the recurring tick.
  void start();
  void stop();

 private:
  void tick();

  sim::Simulator& sim_;
  MetricsRegistry& registry_;
  sim::SimTime interval_;
  sim::EventHandle event_;
  bool running_ = false;
};

}  // namespace sdnbuf::obs
