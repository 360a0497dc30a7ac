// Shared harness code for the per-figure benchmark binaries.
//
// Each bench binary reproduces one table/figure of the paper:
//   Experiment E1 (§IV):  1000 single-packet UDP flows, 1000-byte frames,
//                         rates 5..100 Mbps, mechanisms no-buffer /
//                         buffer-16 / buffer-256, N repetitions per rate.
//   Experiment E2 (§V.B): 50 flows x 20 packets in cross-sequence batches
//                         of 5, buffer-256, packet- vs flow-granularity.
//
// Output: an aligned table on stdout (mean and std across repetitions per
// sending rate) and a CSV next to the binary's working directory under
// results/.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "util/cli.hpp"

namespace sdnbuf::bench {

struct Options {
  int repetitions = 20;
  std::vector<double> rates;  // empty -> paper default 5..100 step 5
  std::string csv_dir = "results";
  bool quiet = false;
  std::uint64_t seed = 1;
  // Sweep worker threads (core::SweepConfig::jobs). Defaults to
  // hardware_concurrency; results are bit-identical for any value, and
  // --jobs 1 runs the historical sequential path.
  int jobs = 0;  // 0 -> ThreadPool::default_parallelism(), set by parse_options

  // Analytical pre-screening (src/model): before sweeping, evaluate the
  // whole rate grid in closed form for every mechanism of the experiment
  // and simulate only the "interesting" rates (grid anchors, delay and
  // utilization knees, mechanism crossovers). Logs how many grid cells the
  // model skipped. All mechanisms of one figure share the screened rate
  // axis, so overlaid curves stay aligned.
  bool prescreen = false;

  // Observability (DESIGN.md §10). When any of these is requested, each
  // mechanism additionally gets ONE fully-instrumented single run at a
  // representative rate (the sweeps themselves stay obs-free, so the
  // figures and their parallel determinism contract are untouched).
  // Artifact paths are suffixed with the mechanism label: passing
  // --metrics-out m.json writes m-no-buffer.json, m-buffer-256.json, ...
  std::string metrics_out;        // "" = no metrics export
  std::string trace_out;          // "" = no trace export
  std::uint32_t trace_sample = 16;  // 1 = trace every flow
  bool profile = false;           // print per-component event-loop profile

  [[nodiscard]] bool observability_enabled() const {
    return !metrics_out.empty() || !trace_out.empty() || profile;
  }
};

// Parses --reps/--quick/--rates-coarse/--csv-dir/--seed/--jobs/--prescreen
// plus the observability flags --metrics-out/--trace-out/--trace-sample/
// --profile and --log-level; exits on bad flags. --reps defaults to 20, or to
// 3 under --quick; an explicit --reps wins over --quick.
[[nodiscard]] Options parse_options(int argc, char** argv);

// Inserts "-<label>" before the path's extension ("m.json" -> "m-x.json").
[[nodiscard]] std::string suffixed_path(const std::string& path, const std::string& label);

// The three E1 mechanism variants of §IV.
struct MechanismSpec {
  std::string label;
  sw::BufferMode mode;
  std::size_t buffer_capacity;
};

[[nodiscard]] std::vector<MechanismSpec> e1_mechanisms();
[[nodiscard]] std::vector<MechanismSpec> e2_mechanisms();

// Runs the E1 sweep for one mechanism.
[[nodiscard]] core::SweepResult run_e1(const Options& options, const MechanismSpec& mechanism);

// Runs the E2 sweep (50 flows x 20 packets, cross-sequence) for one
// mechanism.
[[nodiscard]] core::SweepResult run_e2(const Options& options, const MechanismSpec& mechanism);

// One fully-instrumented single run of `base` under `mechanism` at
// `rate_mbps`, writing whichever obs artifacts the options request. No-op
// when no obs flag was given; run_e1/run_e2 call it after their sweeps.
void run_observed(const Options& options, const MechanismSpec& mechanism,
                  core::ExperimentConfig base, double rate_mbps);

// Extracts one (mean, std) series per sweep and prints the figure table +
// CSV. `metric` pulls the per-rate Summary to report.
using MetricFn = std::function<const util::Summary&(const core::RatePoint&)>;

void print_figure(const Options& options, const std::string& figure_id, const std::string& title,
                  const std::string& unit, const std::vector<core::SweepResult>& sweeps,
                  const MetricFn& metric);

// Prints "<label>: paper=<paper> measured=<measured>" claim lines.
void print_claim(const std::string& label, const std::string& paper, double measured,
                 const std::string& unit);

}  // namespace sdnbuf::bench
