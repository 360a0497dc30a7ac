// The benchmark's four workloads. Each builds its inputs from the workload
// seed, runs one iteration through the simulator's public drivers, and
// checks the iteration's outputs.
//
//   e1-16k            Fig. 1 testbed, 16,384 single-packet flows (4x the
//                     flow table), buffer-256, via core::run_experiment
//   figures           the E1 and E2 sweeps behind the committed figure CSVs,
//                     via bench::run_e1/run_e2 and bench::print_figure at
//                     jobs = hardware threads
//   fabric-k8         fat-tree k=8 all-to-all traffic, per-hop reactive
//                     routing, via core::run_fabric_experiment (a permutation
//                     matrix draws one shift per seed, and whether that shift
//                     stays inside a pod moves every metric by 20-50%)
//   incast-telemetry  leaf-spine incast into a dynamic-threshold MMU with the
//                     telemetry plane (observatory, INT, sampling, metrics) on
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "report.hpp"
#include "util/stats.hpp"

namespace perfbench {

// Where the committed reference outputs live (overridable so the
// self-tests can point the checks at corrupted copies).
struct References {
  std::string results_dir = "results";             // committed figure CSVs
  std::string reference_dir = "perfbench/reference";  // recorded digests
};

// What one iteration produced, as the checks and the metrics need it.
struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  // Simulated flow-setup delays (ms): per flow for single runs; for the
  // figure sweeps, one mean per (mechanism, rate) point.
  sdnbuf::util::Samples setup_ms;
  double ctrl_bytes_per_pkt = 0.0;

  // Per-layer counts.
  std::uint64_t pkt_ins = 0;
  std::uint64_t flow_mods = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t mmu_rejected = 0;
  std::uint64_t int_stamps = 0;
  std::uint64_t metrics_snapshots = 0;
  double buffer_max_units = 0.0;

  // Fingerprint of every simulated output; same seed => same digest.
  std::string digest;
  // Generated files (figure CSVs by name), compared against references.
  std::map<std::string, std::string> files;
  // Output-check failures; empty means the iteration is correct.
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs and one testbed through its public constructor. Timed
  // (several times) for setup_s; spans name the layer of each step.
  virtual void setup(SpanRecorder& spans) = 0;

  // One iteration on `seed`, outputs checked. A non-null profiler is
  // attached to the event loop where the driver has a profiler hook and the
  // run is sequential (e1-16k); elsewhere it is ignored.
  virtual Outcome run(std::uint64_t seed, SpanRecorder& spans,
                      sdnbuf::obs::EventLoopProfiler* profiler) = 0;

  // The seed whose outputs are committed as references, if any. The warm-up
  // iteration runs it and check_reference compares.
  [[nodiscard]] virtual std::optional<std::uint64_t> reference_seed() const { return std::nullopt; }
  virtual void check_reference(const References& /*refs*/, Outcome& /*outcome*/) const {}

  // A sequential profiled pass for workloads whose timed iterations run in
  // parallel (nullopt: run() already profiles).
  virtual std::optional<Outcome> profile_pass(std::uint64_t /*seed*/, SpanRecorder& /*spans*/,
                                              sdnbuf::obs::EventLoopProfiler& /*profiler*/) {
    return std::nullopt;
  }

  // Telemetry-off vs telemetry-on CPU-time overhead (%) over about
  // `budget_s` of interleaved runs; nullopt where telemetry is off.
  virtual std::optional<double> telemetry_overhead_pct(std::uint64_t /*seed*/,
                                                       double /*budget_s*/) {
    return std::nullopt;
  }

  // Sweep wall at jobs=1 over wall at jobs=N on a reduced sweep of this
  // workload's shape; nullopt where the workload runs no sweep.
  virtual std::optional<double> sweep_speedup(std::uint64_t /*seed*/, unsigned /*jobs*/) {
    return std::nullopt;
  }

  // Flow-table occupancy the workload's switches reach (probe shape).
  [[nodiscard]] virtual std::size_t flow_table_occupancy() const { return 1000; }

  // Whether the workload's switches run a shared-memory MMU; the MMU probe
  // reports 0 where they do not.
  [[nodiscard]] virtual bool runs_mmu() const { return false; }
};

// nullptr for an unknown name. `scratch_dir` takes files a workload writes
// only to check them (the figure CSVs).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                                      unsigned jobs,
                                                      const std::string& scratch_dir);

}  // namespace perfbench
