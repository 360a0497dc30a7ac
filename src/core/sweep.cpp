#include "core/sweep.hpp"

#include <atomic>
#include <mutex>
#include <ostream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace sdnbuf::core {

std::vector<double> default_rates() {
  std::vector<double> rates;
  for (int r = 5; r <= 100; r += 5) rates.push_back(static_cast<double>(r));
  return rates;
}

double SweepResult::overall_mean(
    const std::function<double(const RatePoint&)>& metric) const {
  util::Summary s;
  for (const auto& p : points) s.add(metric(p));
  return s.mean();
}

double SweepResult::overall_max(const std::function<double(const RatePoint&)>& metric) const {
  util::Summary s;
  for (const auto& p : points) s.add(metric(p));
  return s.max();
}

namespace {

ExperimentConfig cell_config(const SweepConfig& config, double rate, int rep) {
  ExperimentConfig ec = config.base;
  ec.rate_mbps = rate;
  // Seed derivation: distinct per (rate, repetition), stable across runs.
  ec.seed = config.base.seed * 1000003u + static_cast<std::uint64_t>(rate) * 101u +
            static_cast<std::uint64_t>(rep);
  return ec;
}

// The one merge path both the sequential loop and the parallel merge use:
// identical code, identical order => identical floating-point results.
void accumulate(RatePoint& point, const ExperimentResult& r) {
  point.to_controller_mbps.add(r.to_controller_mbps);
  point.to_switch_mbps.add(r.to_switch_mbps);
  point.controller_cpu_pct.add(r.controller_cpu_pct);
  point.switch_cpu_pct.add(r.switch_cpu_pct);
  point.bus_utilization_pct.add(r.bus_utilization_pct);
  if (r.setup_ms.count() > 0) point.setup_ms.add(r.setup_ms.mean());
  if (r.controller_ms.count() > 0) point.controller_ms.add(r.controller_ms.mean());
  if (r.switch_ms.count() > 0) point.switch_ms.add(r.switch_ms.mean());
  if (r.forwarding_ms.count() > 0) point.forwarding_ms.add(r.forwarding_ms.mean());
  point.buffer_avg_units.add(r.buffer_avg_units);
  point.buffer_max_units.add(r.buffer_max_units);
  point.pkt_ins_sent.add(static_cast<double>(r.pkt_ins_sent));
  point.full_frame_pkt_ins.add(static_cast<double>(r.full_frame_pkt_ins));
  point.pooled_setup_ms.merge(r.setup_ms.summary());
  point.pooled_controller_ms.merge(r.controller_ms.summary());
  point.pooled_switch_ms.merge(r.switch_ms.summary());
  point.pooled_forwarding_ms.merge(r.forwarding_ms.summary());
  point.undelivered_packets += r.packets_sent - r.packets_delivered;
}

}  // namespace

SweepResult run_sweep(const SweepConfig& config, std::string label, const ProgressFn& progress) {
  SDNBUF_CHECK(config.repetitions >= 1);
  SweepResult result;
  result.label = std::move(label);
  const std::vector<double> rates =
      config.rates_mbps.empty() ? default_rates() : config.rates_mbps;

  const std::size_t cells = rates.size() * static_cast<std::size_t>(config.repetitions);
  // Observer / capture / obs sinks are single shared objects; concurrent
  // cells would race on them, so those configs stay on the sequential path.
  const ExperimentConfig& b = config.base;
  const bool shared_sinks = !b.testbed.observers.empty() || b.testbed.observatory != nullptr ||
                            b.capture != nullptr || b.metrics != nullptr ||
                            b.tracer != nullptr || b.profiler != nullptr;
  const std::size_t jobs =
      shared_sinks ? 1
                   : std::min<std::size_t>(std::max(config.jobs, 1), std::max<std::size_t>(cells, 1));

  if (jobs <= 1) {
    for (const double rate : rates) {
      RatePoint point;
      point.rate_mbps = rate;
      for (int rep = 0; rep < config.repetitions; ++rep) {
        if (progress) progress(rate, rep);
        accumulate(point, run_experiment(cell_config(config, rate, rep)));
      }
      result.points.push_back(std::move(point));
    }
    return result;
  }

  // Parallel fan-out: each (rate, repetition) cell writes its result into a
  // pre-assigned slot; the merge below runs on this thread in sweep order.
  //
  // Work distribution is pull-based at worker granularity: one long-lived
  // task per worker draining a shared atomic cell counter, instead of one
  // queued closure per cell. That turns 2 mutex acquisitions + a condition
  // wakeup + a heap-allocated std::function per cell into a single relaxed
  // fetch_add, which is what small sweeps of short E1 runs were losing to
  // at fine cell granularity (speedup < 1 at jobs=4). Slot pre-assignment
  // and the sequential merge are untouched, so results stay bit-identical
  // to the jobs=1 path for any job count (test_parallel_sweep checks it).
  std::vector<ExperimentResult> cell_results(cells);
  const std::size_t reps = static_cast<std::size_t>(config.repetitions);
  {
    util::ThreadPool pool(static_cast<unsigned>(jobs));
    std::mutex progress_mu;
    std::atomic<std::size_t> next_cell{0};
    for (std::size_t worker = 0; worker < jobs; ++worker) {
      pool.submit([&config, &cell_results, &progress, &progress_mu, &next_cell, &rates, reps,
                   cells]() {
        for (std::size_t index = next_cell.fetch_add(1, std::memory_order_relaxed);
             index < cells; index = next_cell.fetch_add(1, std::memory_order_relaxed)) {
          const double rate = rates[index / reps];
          const int rep = static_cast<int>(index % reps);
          if (progress) {
            const std::lock_guard<std::mutex> lock(progress_mu);
            progress(rate, rep);
          }
          cell_results[index] = run_experiment(cell_config(config, rate, rep));
        }
      });
    }
    pool.wait_idle();
  }

  std::size_t index = 0;
  for (const double rate : rates) {
    RatePoint point;
    point.rate_mbps = rate;
    for (int rep = 0; rep < config.repetitions; ++rep, ++index) {
      accumulate(point, cell_results[index]);
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

namespace {

bool summary_equal(const util::Summary& a, const util::Summary& b) {
  // Exact comparison on purpose: the determinism contract is bitwise, not
  // approximate. mean/variance derive from the Welford state, so checking
  // count, mean, variance, min, max and sum pins every stored double.
  return a.count() == b.count() && a.mean() == b.mean() && a.variance() == b.variance() &&
         a.min() == b.min() && a.max() == b.max() && a.sum() == b.sum();
}

bool point_equal(const RatePoint& a, const RatePoint& b) {
  return a.rate_mbps == b.rate_mbps && summary_equal(a.to_controller_mbps, b.to_controller_mbps) &&
         summary_equal(a.to_switch_mbps, b.to_switch_mbps) &&
         summary_equal(a.controller_cpu_pct, b.controller_cpu_pct) &&
         summary_equal(a.switch_cpu_pct, b.switch_cpu_pct) &&
         summary_equal(a.bus_utilization_pct, b.bus_utilization_pct) &&
         summary_equal(a.setup_ms, b.setup_ms) && summary_equal(a.controller_ms, b.controller_ms) &&
         summary_equal(a.switch_ms, b.switch_ms) &&
         summary_equal(a.forwarding_ms, b.forwarding_ms) &&
         summary_equal(a.buffer_avg_units, b.buffer_avg_units) &&
         summary_equal(a.buffer_max_units, b.buffer_max_units) &&
         summary_equal(a.pkt_ins_sent, b.pkt_ins_sent) &&
         summary_equal(a.full_frame_pkt_ins, b.full_frame_pkt_ins) &&
         summary_equal(a.pooled_setup_ms, b.pooled_setup_ms) &&
         summary_equal(a.pooled_controller_ms, b.pooled_controller_ms) &&
         summary_equal(a.pooled_switch_ms, b.pooled_switch_ms) &&
         summary_equal(a.pooled_forwarding_ms, b.pooled_forwarding_ms) &&
         a.undelivered_packets == b.undelivered_packets;
}

void csv_summary(std::ostream& out, const util::Summary& s) {
  out << ',' << s.count() << ',' << util::format_double(s.mean(), 17) << ','
      << util::format_double(s.stddev(), 17) << ',' << util::format_double(s.min(), 17) << ','
      << util::format_double(s.max(), 17);
}

}  // namespace

bool bitwise_equal(const SweepResult& a, const SweepResult& b) {
  if (a.label != b.label || a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (!point_equal(a.points[i], b.points[i])) return false;
  }
  return true;
}

void write_csv(const SweepResult& result, std::ostream& out) {
  out << "rate_mbps";
  for (const char* metric :
       {"to_controller_mbps", "to_switch_mbps", "controller_cpu_pct", "switch_cpu_pct",
        "bus_utilization_pct", "setup_ms", "controller_ms", "switch_ms", "forwarding_ms",
        "buffer_avg_units", "buffer_max_units", "pkt_ins_sent", "full_frame_pkt_ins",
        "pooled_setup_ms", "pooled_controller_ms", "pooled_switch_ms", "pooled_forwarding_ms"}) {
    out << ',' << metric << "_count," << metric << "_mean," << metric << "_std," << metric
        << "_min," << metric << "_max";
  }
  out << ",undelivered_packets\n";
  for (const auto& p : result.points) {
    out << util::format_double(p.rate_mbps, 17);
    csv_summary(out, p.to_controller_mbps);
    csv_summary(out, p.to_switch_mbps);
    csv_summary(out, p.controller_cpu_pct);
    csv_summary(out, p.switch_cpu_pct);
    csv_summary(out, p.bus_utilization_pct);
    csv_summary(out, p.setup_ms);
    csv_summary(out, p.controller_ms);
    csv_summary(out, p.switch_ms);
    csv_summary(out, p.forwarding_ms);
    csv_summary(out, p.buffer_avg_units);
    csv_summary(out, p.buffer_max_units);
    csv_summary(out, p.pkt_ins_sent);
    csv_summary(out, p.full_frame_pkt_ins);
    csv_summary(out, p.pooled_setup_ms);
    csv_summary(out, p.pooled_controller_ms);
    csv_summary(out, p.pooled_switch_ms);
    csv_summary(out, p.pooled_forwarding_ms);
    out << ',' << p.undelivered_packets << '\n';
  }
}

}  // namespace sdnbuf::core
