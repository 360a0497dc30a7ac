#include "fabric_cells.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace sdnbuf::bench {

Options parse_fabric_options(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  if (!options.trace_out.empty() || !options.metrics_out.empty()) {
    std::cerr << "error: " << argv[0]
              << " does not support --trace-out or --metrics-out (flow traces follow one "
                 "switch's xids; use --profile for per-component cost)\n";
    std::exit(1);
  }
  return options;
}

std::vector<core::FabricExperimentResult> run_fabric_cells(
    const Options& options, std::vector<core::FabricExperimentConfig> configs) {
  std::vector<obs::EventLoopProfiler> profilers(options.profile ? configs.size() : 0);
  for (std::size_t i = 0; i < profilers.size(); ++i) configs[i].profiler = &profilers[i];

  std::vector<core::FabricExperimentResult> out(configs.size());
  if (options.jobs <= 1 || configs.size() <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) out[i] = run_fabric_experiment(configs[i]);
  } else {
    const auto workers =
        std::min<std::size_t>(static_cast<std::size_t>(options.jobs), configs.size());
    util::ThreadPool pool(static_cast<unsigned>(workers));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      pool.submit([&configs, &out, i] { out[i] = run_fabric_experiment(configs[i]); });
    }
    pool.wait_idle();
  }

  if (options.profile) {
    obs::EventLoopProfiler merged;
    for (const obs::EventLoopProfiler& p : profilers) merged.merge_from(p);
    std::cout << "merged over " << configs.size() << " runs:\n";
    merged.write_report(std::cout);
    std::cout << '\n';
  }
  return out;
}

}  // namespace sdnbuf::bench
