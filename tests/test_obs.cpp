// Tests for the observability layer (src/obs): histogram correctness
// against exact percentiles, registry snapshots and polls, the event-loop
// profiler, flow tracing span balance with the DelayRecorder cross-check,
// deterministic sampling, and the no-perturbation contract (obs-on runs are
// bit-identical to obs-off runs of the same seed).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "metrics/delay_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "verify/invariants.hpp"

using namespace sdnbuf;

namespace {

sim::SimTime ms(long long v) { return sim::SimTime::milliseconds(v); }

core::ExperimentConfig small_experiment(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.mode = sw::BufferMode::PacketGranularity;
  config.buffer_capacity = 64;
  config.rate_mbps = 50.0;
  config.frame_size = 1000;
  config.n_flows = 200;
  config.packets_per_flow = 1;
  config.seed = seed;
  return config;
}

}  // namespace

// --- Histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundsFollowLog2Layout) {
  const double unit = 2.0;
  EXPECT_EQ(obs::Histogram::lower_bound(0, unit), 0.0);
  EXPECT_EQ(obs::Histogram::upper_bound(0, unit), 2.0);
  EXPECT_EQ(obs::Histogram::lower_bound(1, unit), 2.0);
  EXPECT_EQ(obs::Histogram::upper_bound(1, unit), 4.0);
  EXPECT_EQ(obs::Histogram::lower_bound(5, unit), 32.0);
  EXPECT_EQ(obs::Histogram::upper_bound(5, unit), 64.0);
}

// The headline correctness check: log2-bucket quantile estimates stay within
// a factor of 2 (the bucket width) of the exact util::Samples percentiles,
// on a skewed distribution like the ones the instruments see.
TEST(Histogram, QuantilesWithinFactorTwoOfExactPercentiles) {
  // Unit well below the smallest tested percentile: the factor-2 error bound
  // only holds above the first bucket (values in [0, unit) have unbounded
  // relative error by construction).
  obs::Histogram hist{0.05};
  util::Samples exact;
  util::Rng rng{42};
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.lognormal(2.0, 1.0);
    hist.record(v);
    exact.add(v);
  }
  ASSERT_EQ(hist.count(), exact.count());
  EXPECT_NEAR(hist.mean(), exact.mean(), 1e-9);
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double estimate = hist.quantile(p);
    const double truth = exact.percentile(p);
    ASSERT_GT(truth, 0.0);
    EXPECT_GE(estimate, truth / 2.0) << "p" << p;
    EXPECT_LE(estimate, truth * 2.0) << "p" << p;
  }
  // Quantiles clamp into the observed range.
  EXPECT_GE(hist.quantile(0.0), hist.min());
  EXPECT_LE(hist.quantile(100.0), hist.max());
}

TEST(Histogram, OverflowBucketAbsorbsHugeValues) {
  obs::Histogram hist{1.0};
  hist.record(10.0);
  hist.record(1e300);  // far beyond the last bucket's lower bound
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.overflow_count(), 1u);
  // Overflow never fabricates values beyond the observed max.
  EXPECT_LE(hist.quantile(99.0), hist.max());
  EXPECT_EQ(hist.max(), 1e300);
}

TEST(Histogram, MergeAndResetBehave) {
  obs::Histogram a{1.0};
  obs::Histogram b{1.0};
  for (int i = 1; i <= 100; ++i) a.record(double(i));
  for (int i = 101; i <= 200; ++i) b.record(double(i));
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 200.0);
  EXPECT_NEAR(a.sum(), 201.0 * 100.0, 1e-9);
  const double median = a.quantile(50.0);
  EXPECT_GE(median, 50.0);
  EXPECT_LE(median, 200.0);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.quantile(50.0), 0.0);
  EXPECT_EQ(a.sum(), 0.0);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateSharesInstrumentsByName) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("x");
  obs::Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);
  obs::Histogram& h1 = reg.histogram("h", 2.0);
  obs::Histogram& h2 = reg.histogram("h");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.unit(), 2.0);
}

TEST(MetricsRegistry, SnapshotsRecordCountersGaugesAndPolls) {
  obs::MetricsRegistry reg;
  obs::Counter& events = reg.counter("events");
  obs::Gauge& depth = reg.gauge("depth");
  double polled = 7.0;
  reg.register_poll("polled", [&polled]() { return polled; });

  events.add(5);
  depth.set(2.5);
  reg.take_snapshot(ms(10));
  events.add(5);
  depth.set(4.0);
  polled = 9.0;
  reg.take_snapshot(ms(20));

  ASSERT_EQ(reg.snapshot_count(), 2u);
  EXPECT_EQ(reg.snapshot_time(0), ms(10));
  EXPECT_EQ(reg.snapshot_time(1), ms(20));
  EXPECT_EQ(reg.snapshot_value(0, "events"), 5.0);
  EXPECT_EQ(reg.snapshot_value(1, "events"), 10.0);  // cumulative
  EXPECT_EQ(reg.snapshot_value(0, "depth"), 2.5);
  EXPECT_EQ(reg.snapshot_value(1, "depth"), 4.0);
  EXPECT_EQ(reg.snapshot_value(0, "polled"), 7.0);
  EXPECT_EQ(reg.snapshot_value(1, "polled"), 9.0);
  EXPECT_FALSE(reg.snapshot_value(0, "nope").has_value());

  reg.set_meta("label", "test");
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"polled\""), std::string::npos);
  EXPECT_NE(json.find("\"label\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

TEST(MetricsSnapshotter, TicksAtTheConfiguredInterval) {
  sim::Simulator sim;
  obs::MetricsRegistry reg;
  reg.counter("c");
  obs::MetricsSnapshotter snap{sim, reg, ms(10)};
  snap.start();  // immediate snapshot at t=0
  sim.run_until(ms(35));
  snap.stop();
  sim.run();  // must terminate: the recurring tick was cancelled
  EXPECT_EQ(reg.snapshot_count(), 4u);  // t = 0, 10, 20, 30
}

// --- EventLoopProfiler -----------------------------------------------------

TEST(EventLoopProfiler, AttributesEventsToOutermostTag) {
  sim::Simulator sim;
  obs::EventLoopProfiler prof;
  sim.set_profile_sink(&prof);
  sim.schedule(ms(1), []() { sim::ScopedProfileTag tag{"alpha"}; });
  sim.schedule(ms(2), []() {
    sim::ScopedProfileTag outer{"outer"};
    { sim::ScopedProfileTag inner{"inner"}; }  // nested tags do not re-attribute
  });
  sim.schedule(ms(3), []() {});  // untagged
  sim.run();

  EXPECT_EQ(prof.total_events(), 3u);
  const auto rows = prof.table();
  bool saw_alpha = false;
  bool saw_outer = false;
  bool saw_inner = false;
  bool saw_untagged = false;
  for (const auto& row : rows) {
    if (row.tag == "alpha") saw_alpha = true;
    if (row.tag == "outer") saw_outer = true;
    if (row.tag == "inner") saw_inner = true;
    if (row.tag == "(untagged)") saw_untagged = true;
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_outer);
  EXPECT_FALSE(saw_inner);
  EXPECT_TRUE(saw_untagged);

  std::ostringstream report;
  prof.write_report(report);
  EXPECT_NE(report.str().find("alpha"), std::string::npos);

  prof.reset();
  EXPECT_EQ(prof.total_events(), 0u);
}

TEST(Profiler, MergeFoldsRows) {
  obs::EventLoopProfiler a;
  obs::EventLoopProfiler b;
  a.on_event("switch", 0.010);
  a.on_event("switch", 0.002);
  a.on_event("link", 0.001);
  b.on_event("switch", 0.004);
  b.on_event("channel", 0.003);
  a.merge_from(b);
  EXPECT_EQ(a.total_events(), 5u);
  EXPECT_NEAR(a.total_seconds(), 0.020, 1e-12);
  const auto rows = a.table();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].tag, "switch");
  EXPECT_EQ(rows[0].events, 3u);
  EXPECT_NEAR(rows[0].total_s, 0.016, 1e-12);
  EXPECT_NEAR(rows[0].max_s, 0.010, 1e-12);
}

// --- FlowTracer ------------------------------------------------------------

TEST(FlowTracer, SamplingIsDeterministicAndSeeded) {
  obs::TraceWriter w1;
  obs::TraceWriter w2;
  obs::TraceWriter w3;
  obs::FlowTracer t1{w1, 7, 4};
  obs::FlowTracer t2{w2, 7, 4};
  obs::FlowTracer t3{w3, 8, 4};
  std::size_t sampled = 0;
  bool seeds_differ = false;
  for (std::uint64_t flow = 0; flow < 1000; ++flow) {
    EXPECT_EQ(t1.sampled(flow), t2.sampled(flow));
    if (t1.sampled(flow) != t3.sampled(flow)) seeds_differ = true;
    if (t1.sampled(flow)) ++sampled;
  }
  // Roughly 1-in-4; generous bounds keep this hash-stable, not flaky.
  EXPECT_GT(sampled, 100u);
  EXPECT_LT(sampled, 500u);
  EXPECT_TRUE(seeds_differ);
  EXPECT_FALSE(t1.sampled(net::kUntrackedFlow));  // warm-up never traced
}

// End-to-end: trace every flow of a real run; spans must balance, and every
// DelayRecorder-completed flow must have a matched packet_in/response span.
TEST(FlowTracer, SpansBalanceAndCoverCompletedFlows) {
  obs::TraceWriter writer;
  obs::FlowTracer tracer{writer, 1, 1};
  core::ExperimentConfig config = small_experiment(5);
  config.tracer = &tracer;
  const core::ExperimentResult result = core::run_experiment(config);

  ASSERT_TRUE(result.drained);
  ASSERT_GT(result.flows_complete, 0u);
  EXPECT_EQ(writer.begin_count(), writer.end_count());
  EXPECT_GE(tracer.control_spans_opened(), tracer.control_spans_answered());
  EXPECT_GE(tracer.control_spans_answered(), result.flows_complete);

  std::ostringstream out;
  writer.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pktin_rtt\""), std::string::npos);
  EXPECT_NE(json.find("\"transit\""), std::string::npos);
  EXPECT_NE(json.find("\"unit_resident\""), std::string::npos);
}

// --- The no-perturbation contract ------------------------------------------

// Attaching every obs layer must not change a single simulated outcome:
// obs-on and obs-off runs of the same seed agree bit-for-bit. The observed
// run puts the delay recorder, an invariant registry and the tracer on
// switch 0's one fan-out.
TEST(Observability, ObsOnRunIsBitIdenticalToObsOff) {
  const core::ExperimentResult plain = core::run_experiment(small_experiment(3));

  obs::MetricsRegistry registry;
  obs::TraceWriter trace_writer;
  obs::FlowTracer tracer{trace_writer, 3, 2};
  obs::EventLoopProfiler profiler;
  verify::InvariantRegistry invariants;
  core::ExperimentConfig config = small_experiment(3);
  config.metrics = &registry;
  config.tracer = &tracer;
  config.profiler = &profiler;
  config.testbed.observers.subscribe(&invariants);
  const core::ExperimentResult observed = core::run_experiment(config);
  invariants.finalize(/*expect_all_delivered=*/true);
  EXPECT_EQ(invariants.total_violations(), 0u) << invariants.report();
  EXPECT_GT(invariants.events_observed(), 0u);

  EXPECT_EQ(plain.packets_sent, observed.packets_sent);
  EXPECT_EQ(plain.packets_delivered, observed.packets_delivered);
  EXPECT_EQ(plain.pkt_ins_sent, observed.pkt_ins_sent);
  EXPECT_EQ(plain.flow_mods, observed.flow_mods);
  EXPECT_EQ(plain.pkt_outs, observed.pkt_outs);
  EXPECT_EQ(plain.to_controller_msgs, observed.to_controller_msgs);
  EXPECT_EQ(plain.to_switch_msgs, observed.to_switch_msgs);
  EXPECT_EQ(plain.to_controller_bytes, observed.to_controller_bytes);
  EXPECT_EQ(plain.to_switch_bytes, observed.to_switch_bytes);
  EXPECT_EQ(plain.flows_complete, observed.flows_complete);
  EXPECT_EQ(plain.duration_s, observed.duration_s);            // exact doubles
  EXPECT_EQ(plain.to_controller_mbps, observed.to_controller_mbps);
  EXPECT_EQ(plain.buffer_avg_units, observed.buffer_avg_units);
  EXPECT_EQ(plain.buffer_max_units, observed.buffer_max_units);
  // Every delay sample, in order (exact doubles).
  ASSERT_FALSE(plain.setup_ms.empty());
  EXPECT_EQ(plain.setup_ms.values(), observed.setup_ms.values());
  EXPECT_EQ(plain.controller_ms.values(), observed.controller_ms.values());
  EXPECT_EQ(plain.switch_ms.values(), observed.switch_ms.values());
  EXPECT_EQ(plain.forwarding_ms.values(), observed.forwarding_ms.values());

  // And the obs side actually observed things.
  EXPECT_GT(registry.snapshot_count(), 0u);
  EXPECT_GT(trace_writer.event_count(), 0u);
  EXPECT_GT(profiler.total_events(), 0u);
  const obs::Histogram* pkt_in = registry.find_histogram("switch.pkt_in_bytes");
  ASSERT_NE(pkt_in, nullptr);
  EXPECT_EQ(pkt_in->count(), plain.pkt_ins_sent);
}
