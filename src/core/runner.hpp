// The one drive routine every experiment runs through. `run_experiment`
// (Fig. 1) and `run_fabric_experiment` differ only in the testbed they
// build, the traffic they push and the result they read off afterwards;
// sink wiring, the slice loop, settle, stop, drain and sink finalization
// happen here, once.
#pragma once

#include <functional>

#include "core/fabric_testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "openflow/capture.hpp"

namespace sdnbuf::core {

// Run options both experiment configs share. The sinks are null by default
// and never perturb simulated state, so obs-on and obs-off runs of the same
// seed are bit-identical (DESIGN.md §10).
struct RunOptions {
  // Extra simulated time allowed for the tail of the run to drain.
  sim::SimTime drain_timeout = sim::SimTime::seconds(5);
  // Instruments and poll gauges are registered once the measurement window
  // opens and snapshotted every `metrics_interval` of sim time, plus one
  // final row after the drain. Polls are cleared before the run returns.
  obs::MetricsRegistry* metrics = nullptr;
  sim::SimTime metrics_interval = sim::SimTime::milliseconds(10);
  // Wall-clock callback attribution, warm-up included. One per run;
  // merge_from folds several runs into one table.
  obs::EventLoopProfiler* profiler = nullptr;
};

// The traffic one run pushes, and the testbed-specific steps around it.
struct TrafficSource {
  // Opens the measurement window (a warm-up or a statistics reset).
  std::function<void()> open;
  // Registers the run's metadata, instruments and poll gauges.
  std::function<void(obs::MetricsRegistry&)> install_metrics;
  // Schedules the traffic and returns when it is due to end; the run waits
  // at most drain_timeout past that for the stop rule.
  std::function<sim::SimTime()> start;
  // The stop rule: true once the run has nothing left to wait for.
  std::function<bool()> done;
  // Optional: cancels the source's own timers so the final drain ends.
  std::function<void()> stop = nullptr;
};

class Runner {
 public:
  // `tracer` (already subscribed to switch 0) and `capture` follow switch
  // 0's xids and control channel; only the Fig. 1 projection passes them.
  explicit Runner(const RunOptions& options, obs::FlowTracer* tracer = nullptr,
                  of::ChannelCapture* capture = nullptr)
      : options_(options), tracer_(tracer), capture_(capture) {}

  // Attaches capture and profiler, opens the window, installs metrics, runs
  // `source` in 20 ms slices until its stop rule holds or the deadline
  // passes, settles for 50 ms, stops and drains, then finalizes the tracer,
  // takes the last metrics row and folds the telemetry observatory.
  void run(FabricTestbed& bed, const TrafficSource& source);

 private:
  const RunOptions& options_;
  obs::FlowTracer* tracer_;
  of::ChannelCapture* capture_;
};

}  // namespace sdnbuf::core
