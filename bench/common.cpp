#include "common.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>

#include "model/prescreen.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace sdnbuf::bench {

Options parse_options(int argc, char** argv) {
  const util::CliFlags flags(
      argc, argv,
      {"reps", "quick", "rates-coarse", "csv-dir", "seed", "quiet", "jobs", "prescreen",
       "metrics-out", "trace-out", "trace-sample", "profile", "log-level"});
  if (!flags.ok()) {
    std::cerr << flags.error() << "\n"
              << "usage: " << argv[0]
              << " [--reps N] [--quick] [--rates-coarse] [--csv-dir DIR] [--seed S] [--jobs N]\n"
              << "       [--prescreen] [--metrics-out F.json] [--trace-out F.json]\n"
              << "       [--trace-sample N] [--profile]"
              << " [--log-level trace|debug|info|warn|error|off]\n";
    std::exit(1);
  }
  Options options;
  // An explicit --reps wins; --quick only lowers the default.
  options.repetitions =
      static_cast<int>(flags.get_int("reps", flags.get_bool("quick", false) ? 3 : 20));
  if (flags.get_bool("rates-coarse", false)) {
    options.rates = {5, 20, 35, 50, 65, 80, 95};
  }
  options.csv_dir = flags.get_string("csv-dir", "results");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.quiet = flags.get_bool("quiet", false);
  options.jobs = static_cast<int>(flags.get_int(
      "jobs", static_cast<long long>(util::ThreadPool::default_parallelism())));
  if (options.jobs < 1) options.jobs = 1;
  options.prescreen = flags.get_bool("prescreen", false);
  options.metrics_out = flags.get_string("metrics-out", "");
  options.trace_out = flags.get_string("trace-out", "");
  options.trace_sample = static_cast<std::uint32_t>(flags.get_int("trace-sample", 16));
  if (options.trace_sample < 1) options.trace_sample = 1;
  options.profile = flags.get_bool("profile", false);
  if (flags.has("log-level")) {
    const std::string name = flags.get_string("log-level", "warn");
    const auto level = util::log_level_from_name(name);
    if (!level) {
      std::cerr << "error: unknown log level '" << name
                << "' (use trace|debug|info|warn|error|off)\n";
      std::exit(1);
    }
    util::set_log_level(*level);
  }
  return options;
}

std::string suffixed_path(const std::string& path, const std::string& label) {
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of("/\\");
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "-" + label;
  }
  return path.substr(0, dot) + "-" + label + path.substr(dot);
}

std::vector<MechanismSpec> e1_mechanisms() {
  return {
      {"no-buffer", sw::BufferMode::NoBuffer, 0},
      {"buffer-16", sw::BufferMode::PacketGranularity, 16},
      {"buffer-256", sw::BufferMode::PacketGranularity, 256},
  };
}

std::vector<MechanismSpec> e2_mechanisms() {
  return {
      {"packet-granularity", sw::BufferMode::PacketGranularity, 256},
      {"flow-granularity", sw::BufferMode::FlowGranularity, 256},
  };
}

namespace {

// The representative rate for the per-mechanism instrumented runs; the
// middle of the paper's 5..100 Mbps range, where buffering effects are
// visible but nothing saturates.
constexpr double kObservedRateMbps = 50.0;

// Screens the sweep's rate grid through the analytical oracle: every
// mechanism of the experiment becomes one model::Sweep scenario, and only
// the rates the model flags as interesting survive. All mechanisms of one
// experiment see the same mechanism set, so repeated calls return the same
// screened axis and overlaid figure curves stay aligned.
std::vector<double> prescreen_rates(const Options& options,
                                    const std::vector<MechanismSpec>& mechanisms,
                                    const core::ExperimentConfig& base) {
  model::Sweep sweep;
  sweep.rates_mbps = options.rates.empty() ? core::default_rates() : options.rates;
  std::string signature;
  for (const auto& m : mechanisms) {
    core::ExperimentConfig config = base;
    config.mode = m.mode;
    config.buffer_capacity = m.buffer_capacity == 0 ? 256 : m.buffer_capacity;
    sweep.scenarios.push_back({m.label, model::Params::from(config)});
    signature += m.label + "|";
  }
  const model::ScreenResult screen = sweep.run();

  // One log line per distinct mechanism set (run_e1 is called once per
  // mechanism with the identical grid; repeating the line is just noise).
  static std::set<std::string> logged;
  if (!options.quiet && logged.insert(signature).second) {
    std::cout << "prescreen: model kept " << screen.kept_rates_mbps.size() << "/"
              << sweep.rates_mbps.size() << " rates, skipping " << screen.skipped_cells() << "/"
              << screen.total_cells << " sweep cells\n";
    for (const auto& x : screen.crossovers) {
      std::cout << "prescreen: " << sweep.scenarios[x.scenario_a].label << " x "
                << sweep.scenarios[x.scenario_b].label << " delay crossover in ["
                << util::format_double(x.rate_low_mbps, 0) << ", "
                << util::format_double(x.rate_high_mbps, 0) << "] Mbps (~"
                << util::format_double(x.rate_estimate_mbps, 1) << ")\n";
    }
  }
  return screen.kept_rates_mbps;
}

core::SweepResult run_sweep_for(const Options& options, const MechanismSpec& mechanism,
                                core::ExperimentConfig base,
                                const std::vector<MechanismSpec>& experiment_mechanisms) {
  base.mode = mechanism.mode;
  base.buffer_capacity = mechanism.buffer_capacity == 0 ? 256 : mechanism.buffer_capacity;
  base.seed = options.seed;
  core::SweepConfig sweep;
  sweep.rates_mbps = options.prescreen ? prescreen_rates(options, experiment_mechanisms, base)
                                       : options.rates;
  sweep.repetitions = options.repetitions;
  sweep.jobs = options.jobs;
  sweep.base = base;
  core::SweepResult result = core::run_sweep(sweep, mechanism.label);
  run_observed(options, mechanism, base, kObservedRateMbps);
  return result;
}

}  // namespace

void run_observed(const Options& options, const MechanismSpec& mechanism,
                  core::ExperimentConfig base, double rate_mbps) {
  if (!options.observability_enabled()) return;

  core::ExperimentConfig config = base;
  config.mode = mechanism.mode;
  config.buffer_capacity = mechanism.buffer_capacity == 0 ? 256 : mechanism.buffer_capacity;
  config.seed = options.seed;
  config.rate_mbps = rate_mbps;

  obs::MetricsRegistry registry;
  obs::TraceWriter writer;
  obs::FlowTracer tracer{writer, options.seed, options.trace_sample};
  obs::EventLoopProfiler profiler;
  if (!options.metrics_out.empty()) config.metrics = &registry;
  if (!options.trace_out.empty()) config.tracer = &tracer;
  if (options.profile) config.profiler = &profiler;

  const core::ExperimentResult result = core::run_experiment(config);
  if (!options.quiet) {
    std::cout << "observed [" << mechanism.label << "] @ "
              << util::format_double(rate_mbps, 0) << " Mbps: " << core::summarize(result)
              << '\n';
  }

  if (!options.metrics_out.empty()) {
    registry.set_meta("label", mechanism.label);
    const std::string path = suffixed_path(options.metrics_out, mechanism.label);
    std::ofstream file(path);
    if (file) {
      registry.write_json(file);
      if (!options.quiet) std::cout << "wrote " << path << '\n';
    } else {
      std::cerr << "warning: could not write " << path << '\n';
    }
  }
  if (!options.trace_out.empty()) {
    writer.set_meta("label", mechanism.label);
    writer.set_meta("seed", std::to_string(options.seed));
    writer.set_meta("sample_period", std::to_string(options.trace_sample));
    const std::string path = suffixed_path(options.trace_out, mechanism.label);
    std::ofstream file(path);
    if (file) {
      writer.write_json(file);
      if (!options.quiet) {
        std::cout << "wrote " << path << " (" << writer.event_count() << " events)\n";
      }
    } else {
      std::cerr << "warning: could not write " << path << '\n';
    }
  }
  if (options.profile) {
    std::cout << "event-loop profile [" << mechanism.label << "]:\n";
    profiler.write_report(std::cout);
  }
}

core::SweepResult run_e1(const Options& options, const MechanismSpec& mechanism) {
  core::ExperimentConfig base;
  base.n_flows = 1000;
  base.packets_per_flow = 1;
  base.frame_size = 1000;
  base.order = host::EmissionOrder::Sequential;
  return run_sweep_for(options, mechanism, base, e1_mechanisms());
}

core::SweepResult run_e2(const Options& options, const MechanismSpec& mechanism) {
  core::ExperimentConfig base;
  base.n_flows = 50;
  base.packets_per_flow = 20;
  base.frame_size = 1000;
  base.order = host::EmissionOrder::CrossSequence;
  base.batch_size = 5;
  return run_sweep_for(options, mechanism, base, e2_mechanisms());
}

void print_figure(const Options& options, const std::string& figure_id, const std::string& title,
                  const std::string& unit, const std::vector<core::SweepResult>& sweeps,
                  const MetricFn& metric) {
  util::TableWriter table(figure_id + ": " + title + " [" + unit + "]");
  std::vector<std::string> columns{"rate (Mbps)"};
  for (const auto& sweep : sweeps) {
    columns.push_back(sweep.label + " mean");
    columns.push_back(sweep.label + " std");
  }
  table.set_columns(columns);

  const std::size_t n_rates = sweeps.empty() ? 0 : sweeps.front().points.size();
  for (std::size_t i = 0; i < n_rates; ++i) {
    std::vector<std::string> row{util::format_double(sweeps.front().points[i].rate_mbps, 0)};
    for (const auto& sweep : sweeps) {
      const auto& summary = metric(sweep.points[i]);
      row.push_back(util::format_double(summary.mean(), 3));
      row.push_back(util::format_double(summary.stddev(), 3));
    }
    table.add_row(std::move(row));
  }
  if (!options.quiet) {
    table.print(std::cout);
    std::cout << '\n';
  }

  std::error_code ec;
  std::filesystem::create_directories(options.csv_dir, ec);
  const std::string path = options.csv_dir + "/" + figure_id + ".csv";
  std::ofstream file(path);
  if (file) {
    util::CsvWriter csv(file);
    csv.header(columns);
    for (std::size_t i = 0; i < n_rates; ++i) {
      std::vector<double> cells{sweeps.front().points[i].rate_mbps};
      for (const auto& sweep : sweeps) {
        const auto& summary = metric(sweep.points[i]);
        cells.push_back(summary.mean());
        cells.push_back(summary.stddev());
      }
      csv.row(cells);
    }
    if (!options.quiet) std::cout << "wrote " << path << "\n\n";
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
}

void print_claim(const std::string& label, const std::string& paper, double measured,
                 const std::string& unit) {
  std::cout << "  " << label << ": paper " << paper << ", measured "
            << util::format_double(measured, 1) << ' ' << unit << '\n';
}

}  // namespace sdnbuf::bench
