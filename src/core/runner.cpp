#include "core/runner.hpp"

#include <algorithm>
#include <optional>

namespace sdnbuf::core {

void Runner::run(FabricTestbed& bed, const TrafficSource& source) {
  sim::Simulator& sim = bed.sim();
  // Capture and profiler see the warm-up too, so two same-seed runs produce
  // byte-identical traces end to end.
  if (capture_ != nullptr) capture_->attach(bed.channel_at(0));
  if (options_.profiler != nullptr) sim.set_profile_sink(options_.profiler);
  source.open();

  std::optional<obs::MetricsSnapshotter> snapshotter;
  if (options_.metrics != nullptr) {
    source.install_metrics(*options_.metrics);
    snapshotter.emplace(sim, *options_.metrics, options_.metrics_interval);
    snapshotter->start();
  }

  const sim::SimTime deadline = source.start() + options_.drain_timeout;
  // Run in slices so the run stops as soon as the stop rule holds.
  const sim::SimTime slice = sim::SimTime::milliseconds(20);
  while (sim.now() < deadline && !source.done()) {
    sim.run_until(std::min(sim.now() + slice, deadline));
  }
  // Let in-flight control traffic settle, then stop housekeeping and drain.
  // The snapshotter's recurring tick must stop too, or the drain never runs
  // out of events.
  sim.run_until(sim.now() + sim::SimTime::milliseconds(50));
  if (snapshotter) snapshotter->stop();
  if (source.stop) source.stop();
  bed.stop();
  sim.run();

  if (tracer_ != nullptr) tracer_->finalize(sim.now());
  if (options_.metrics != nullptr) {
    options_.metrics->take_snapshot(sim.now());  // final row, post-drain
    options_.metrics->clear_polls();             // the testbed dies after the run
  }
  // Fold the telemetry event log inside the measured run — the collector
  // cost is part of what the overhead benchmark charges telemetry for.
  if (bed.observatory() != nullptr) bed.observatory()->flush();
}

}  // namespace sdnbuf::core
