// Sending-rate sweeps with repetitions — the outer loop of every figure.
//
// The paper repeats each experiment 20 times per sending rate and reports
// means (and spreads) per rate. `run_sweep` does the same: per rate, run
// `repetitions` seeds, collect each run's scalar metrics into Summaries,
// and pool the per-flow delay samples.
//
// The sweep is embarrassingly parallel — every (rate, repetition) cell owns
// an independent Simulator/Testbed and a seed derived only from the cell's
// coordinates — so `jobs > 1` fans the cells out across a util::ThreadPool.
// Determinism contract: workers store each cell's ExperimentResult into a
// pre-assigned slot and the merge into RatePoints happens sequentially on
// the calling thread, in exactly the order the jobs=1 loop uses. Results
// are therefore bit-identical (including Summary merge order, which matters
// in floating point) for any job count.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/stats.hpp"

namespace sdnbuf::core {

struct SweepConfig {
  std::vector<double> rates_mbps;  // empty -> default_rates()
  int repetitions = 20;
  // Worker threads for the (rate, repetition) fan-out. 1 = run inline on the
  // calling thread (the historical sequential path). Forced to 1 when the
  // base config carries any sink, since each is a single shared object.
  // Values above the cell count are clamped.
  int jobs = 1;
  ExperimentConfig base;
};

// 5, 10, ..., 100 Mbps — the paper's x-axis.
[[nodiscard]] std::vector<double> default_rates();

struct RatePoint {
  double rate_mbps = 0.0;
  // Each Summary aggregates one scalar across the repetitions at this rate.
  util::Summary to_controller_mbps;
  util::Summary to_switch_mbps;
  util::Summary controller_cpu_pct;
  util::Summary switch_cpu_pct;
  util::Summary bus_utilization_pct;
  util::Summary setup_ms;        // of per-run means
  util::Summary controller_ms;
  util::Summary switch_ms;
  util::Summary forwarding_ms;
  util::Summary buffer_avg_units;
  util::Summary buffer_max_units;
  util::Summary pkt_ins_sent;
  util::Summary full_frame_pkt_ins;
  // Pooled per-flow samples across repetitions (for max / spread claims).
  util::Summary pooled_setup_ms;
  util::Summary pooled_controller_ms;
  util::Summary pooled_switch_ms;
  util::Summary pooled_forwarding_ms;
  std::uint64_t undelivered_packets = 0;
};

struct SweepResult {
  std::string label;  // e.g. "no-buffer", "buffer-16", "flow-granularity"
  std::vector<RatePoint> points;

  // Mean across rates of a per-rate metric (the paper's "on average").
  [[nodiscard]] double overall_mean(
      const std::function<double(const RatePoint&)>& metric) const;
  [[nodiscard]] double overall_max(
      const std::function<double(const RatePoint&)>& metric) const;
};

using ProgressFn = std::function<void(double rate_mbps, int repetition)>;

// With jobs > 1 the progress callback fires from worker threads (serialized
// by an internal mutex) in completion-start order, not sweep order.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config, std::string label,
                                    const ProgressFn& progress = nullptr);

// Exact (bitwise) equality across every Summary field of every point — the
// parallel determinism contract checked by test_parallel_sweep.
[[nodiscard]] bool bitwise_equal(const SweepResult& a, const SweepResult& b);

// Canonical CSV serialization of a sweep (full precision, one row per
// rate). Used to assert that parallel and sequential sweeps produce
// byte-identical CSV output.
void write_csv(const SweepResult& result, std::ostream& out);

}  // namespace sdnbuf::core
