// Determinism contract of the parallel sweep engine: run_sweep with any job
// count must produce bit-identical SweepResults — and byte-identical CSV —
// to the sequential jobs=1 path. This test is also the ThreadSanitizer
// target in scripts/sanitize_check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "obs/fabric_observatory.hpp"
#include "verify/invariants.hpp"

namespace sdnbuf::core {
namespace {

SweepConfig small_sweep() {
  SweepConfig sweep;
  sweep.base.mode = sw::BufferMode::PacketGranularity;
  sweep.base.buffer_capacity = 64;
  sweep.base.n_flows = 40;
  sweep.base.packets_per_flow = 2;
  sweep.base.frame_size = 1000;
  sweep.rates_mbps = {10.0, 50.0};
  sweep.repetitions = 6;
  return sweep;
}

TEST(ParallelSweep, EightJobsBitIdenticalToSequential) {
  SweepConfig sweep = small_sweep();

  sweep.jobs = 1;
  const SweepResult sequential = run_sweep(sweep, "contract");
  sweep.jobs = 8;
  const SweepResult parallel = run_sweep(sweep, "contract");

  EXPECT_TRUE(bitwise_equal(sequential, parallel));

  std::ostringstream seq_csv;
  std::ostringstream par_csv;
  write_csv(sequential, seq_csv);
  write_csv(parallel, par_csv);
  EXPECT_EQ(seq_csv.str(), par_csv.str());
  EXPECT_FALSE(seq_csv.str().empty());
}

TEST(ParallelSweep, RepeatedParallelRunsAreStable) {
  SweepConfig sweep = small_sweep();
  sweep.jobs = 4;
  const SweepResult first = run_sweep(sweep, "stable");
  const SweepResult second = run_sweep(sweep, "stable");
  EXPECT_TRUE(bitwise_equal(first, second));
}

TEST(ParallelSweep, JobsAboveCellCountClamped) {
  SweepConfig sweep = small_sweep();
  sweep.rates_mbps = {10.0};
  sweep.repetitions = 2;  // 2 cells
  sweep.jobs = 64;        // far more workers than cells
  const SweepResult many = run_sweep(sweep, "clamp");
  sweep.jobs = 1;
  const SweepResult one = run_sweep(sweep, "clamp");
  EXPECT_TRUE(bitwise_equal(many, one));
}

TEST(ParallelSweep, ProgressFiresOncePerCell) {
  SweepConfig sweep = small_sweep();
  sweep.jobs = 8;
  std::atomic<int> calls{0};
  (void)run_sweep(sweep, "progress", [&calls](double, int) { calls.fetch_add(1); });
  const int cells = static_cast<int>(sweep.rates_mbps.size()) * sweep.repetitions;
  EXPECT_EQ(calls.load(), cells);
}

TEST(ParallelSweep, ObserverForcesSequentialPathAndStillMatches) {
  // An invariant observer is a single shared sink, so run_sweep must ignore
  // jobs > 1 — and the result must still match the plain sequential sweep
  // (the observer itself does not perturb the simulation). One registry is
  // valid for one run, hence the single-cell sweep.
  SweepConfig sweep = small_sweep();
  sweep.rates_mbps = {10.0};
  sweep.repetitions = 1;

  sweep.jobs = 1;
  const SweepResult plain = run_sweep(sweep, "observed");

  verify::InvariantRegistry registry;
  sweep.base.testbed.observers.subscribe(&registry);
  sweep.jobs = 8;
  const SweepResult observed = run_sweep(sweep, "observed");

  EXPECT_TRUE(bitwise_equal(plain, observed));
  EXPECT_GT(registry.events_observed(), 0u);
  registry.finalize(/*expect_all_delivered=*/true);
  EXPECT_TRUE(registry.ok()) << registry.report();

  // The telemetry observatory is a shared sink too (its ledger resets per
  // cell): a multi-cell sweep carrying one must run every cell on the
  // calling thread, and still match the plain sweep.
  SweepConfig telemetry = small_sweep();
  telemetry.jobs = 1;
  const SweepResult telemetry_plain = run_sweep(telemetry, "observatory");
  obs::FabricObservatory observatory;
  telemetry.base.testbed.observatory = &observatory;
  telemetry.jobs = 8;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  const SweepResult telemetry_observed =
      run_sweep(telemetry, "observatory", [&](double, int) {
        calls.fetch_add(1);
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
      });
  EXPECT_EQ(calls.load(), static_cast<int>(telemetry.rates_mbps.size()) * telemetry.repetitions);
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_TRUE(bitwise_equal(telemetry_plain, telemetry_observed));
  EXPECT_GT(observatory.injected(), 0u);
}

}  // namespace
}  // namespace sdnbuf::core
