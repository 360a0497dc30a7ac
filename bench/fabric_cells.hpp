// Shared cell runner for the fabric benches (bench_fabric, bench_failover).
//
// Every cell owns an independent FabricTestbed with a seed derived only from
// its coordinates, so cells fan out across a ThreadPool into pre-assigned
// slots: results are bit-identical for any --jobs value.
#pragma once

#include <vector>

#include "common.hpp"
#include "core/fabric_experiment.hpp"

namespace sdnbuf::bench {

// parse_options, then rejects --trace-out and --metrics-out with a usage
// error: the flow tracer keys its spans by per-switch xids, so it cannot span
// a fabric, and the fabric benches write no per-run metrics artifacts.
[[nodiscard]] Options parse_fabric_options(int argc, char** argv);

// Runs every config and returns the results in config order. With --profile
// each cell gets its own event-loop profiler; after the run they merge in
// config order and the attribution table prints to stdout.
[[nodiscard]] std::vector<core::FabricExperimentResult> run_fabric_cells(
    const Options& options, std::vector<core::FabricExperimentConfig> configs);

}  // namespace sdnbuf::bench
