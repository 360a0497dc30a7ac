// Unit tests for the discrete-event engine: time arithmetic, event ordering,
// cancellation, run_until semantics, and the multi-server queueing station.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sdnbuf::sim {
namespace {

TEST(SimTime, ConstructorsAndAccessors) {
  EXPECT_EQ(SimTime::microseconds(3).ns(), 3000);
  EXPECT_EQ(SimTime::milliseconds(2).ns(), 2'000'000);
  EXPECT_EQ(SimTime::seconds(1).ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(1500).sec(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::microseconds(1500).ms(), 1.5);
}

TEST(SimTime, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds(1e-9).ns(), 1);
  EXPECT_EQ(SimTime::from_seconds(1.4e-9).ns(), 1);
  EXPECT_EQ(SimTime::from_seconds(1.6e-9).ns(), 2);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::milliseconds(3);
  const SimTime b = SimTime::milliseconds(1);
  EXPECT_EQ((a + b).ns(), 4'000'000);
  EXPECT_EQ((a - b).ns(), 2'000'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(a.scaled(0.5).ns(), 1'500'000);
}

TEST(SimTime, TransmissionTime) {
  // 1000 bytes at 100 Mbps = 80 microseconds.
  EXPECT_EQ(transmission_time(1000, 100e6).ns(), 80'000);
  // 1 byte at 1 Gbps = 8 ns.
  EXPECT_EQ(transmission_time(1, 1e9).ns(), 8);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::milliseconds(3), [&]() { order.push_back(3); });
  sim.schedule(SimTime::milliseconds(1), [&]() { order.push_back(1); });
  sim.schedule(SimTime::milliseconds(2), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::milliseconds(3));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(SimTime::milliseconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 10) sim.schedule(SimTime::microseconds(1), chain);
  };
  sim.schedule(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), SimTime::microseconds(9));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(SimTime::milliseconds(1), [&]() { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule(SimTime::zero(), []() {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.schedule(SimTime::milliseconds(1), [&]() { ++ran; });
  sim.schedule(SimTime::milliseconds(5), [&]() { ++ran; });
  const std::size_t executed = sim.run_until(SimTime::milliseconds(2));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(2));  // clock advances to the boundary
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule(SimTime::milliseconds(2), [&]() { ran = true; });
  sim.run_until(SimTime::milliseconds(2));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule(SimTime::zero(), [&]() { ++ran; });
  sim.schedule(SimTime::zero(), [&]() { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(SimTime::zero(), []() {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

// Property: over many randomized schedules with heavy time collisions,
// execution order is exactly (time, scheduling order).
TEST(SimulatorProperty, EqualTimeEventsAlwaysExecuteInSchedulingOrder) {
  util::Rng rng(0xfeed);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    const int n = 20 + static_cast<int>(rng.next_below(60));
    std::vector<std::pair<std::int64_t, int>> expected;  // (time, insertion idx)
    std::vector<int> executed;
    for (int i = 0; i < n; ++i) {
      // Only 8 distinct timestamps, so most events collide.
      const auto t = SimTime::microseconds(static_cast<std::int64_t>(rng.next_below(8)));
      expected.emplace_back(t.ns(), i);
      sim.schedule(t, [&executed, i]() { executed.push_back(i); });
    }
    sim.run();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(executed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(executed[i], expected[i].second) << "trial " << trial << " position " << i;
    }
  }
}

// Property: cancelling a handle after its event fired never unschedules
// anything else and keeps the pending-event accounting exact.
TEST(SimulatorProperty, CancelAfterFireIsAlwaysNoop) {
  util::Rng rng(0xcafe);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    const int n = 10 + static_cast<int>(rng.next_below(30));
    int ran = 0;
    std::vector<EventHandle> handles;
    for (int i = 0; i < n; ++i) {
      handles.push_back(sim.schedule(
          SimTime::microseconds(static_cast<std::int64_t>(rng.next_below(5))), [&]() { ++ran; }));
    }
    sim.run();
    ASSERT_EQ(ran, n);
    for (auto& h : handles) {
      ASSERT_FALSE(h.pending());
      h.cancel();  // all no-ops
      h.cancel();  // idempotent
    }
    ASSERT_EQ(sim.pending_events(), 0u);
    // The simulator is still fully functional afterwards.
    bool late = false;
    sim.schedule(SimTime::microseconds(1), [&]() { late = true; });
    ASSERT_EQ(sim.pending_events(), 1u);
    sim.run();
    ASSERT_TRUE(late);
  }
}

// Property: run_until(t) executes exactly the events with time <= t, leaves
// the rest queued, and advances the clock to exactly t even when no event
// sits on the boundary.
TEST(SimulatorProperty, RunUntilAdvancesClockExactlyToBoundary) {
  util::Rng rng(0xbead);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    const int n = 10 + static_cast<int>(rng.next_below(40));
    std::vector<std::int64_t> times_ns;
    std::size_t executed = 0;
    for (int i = 0; i < n; ++i) {
      const auto t = SimTime::microseconds(static_cast<std::int64_t>(rng.next_below(100)));
      times_ns.push_back(t.ns());
      sim.schedule(t, [&executed]() { ++executed; });
    }
    // A nanosecond-granular boundary, so it usually falls strictly between
    // the microsecond-aligned event times.
    const SimTime boundary =
        SimTime::nanoseconds(static_cast<std::int64_t>(rng.next_below(100'000'000)));
    sim.run_until(boundary);
    const auto expected = static_cast<std::size_t>(
        std::count_if(times_ns.begin(), times_ns.end(),
                      [&boundary](std::int64_t t) { return t <= boundary.ns(); }));
    ASSERT_EQ(executed, expected) << "trial " << trial;
    ASSERT_EQ(sim.now(), boundary) << "trial " << trial;  // exact, not "last event time"
    ASSERT_EQ(sim.pending_events(), times_ns.size() - expected);
    sim.run();
    ASSERT_EQ(executed, times_ns.size());
  }
}

TEST(Simulator, MassCancellationCompactsHeap) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.schedule(SimTime::seconds(100 + i), []() {}));
  }
  EXPECT_EQ(sim.queued_entries(), 1000u);
  // Cancel 900 of the 1000: tombstones now outnumber live entries, so the
  // heap must compact rather than hold 90% dead weight.
  for (int i = 0; i < 900; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_LT(sim.queued_entries(), 250u);  // 100 live + bounded tombstone slack
  // The survivors are untouched and still run.
  for (int i = 900; i < 1000; ++i) {
    EXPECT_TRUE(handles[static_cast<std::size_t>(i)].pending());
  }
  sim.run();
  EXPECT_EQ(sim.executed_events(), 100u);
  EXPECT_EQ(sim.queued_entries(), 0u);
}

TEST(Simulator, SmallHeapsSkipCompaction) {
  // Below the compaction threshold tombstones are simply popped lazily.
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule(SimTime::seconds(1 + i), []() {}));
  }
  for (int i = 0; i < 9; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.queued_entries(), 10u);  // tombstones still queued
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, StaleHandleCannotCancelRecycledSlot) {
  // After h1 fires its slot returns to the free list; h2 likely reuses it.
  // The generation counter must keep the stale h1 from touching h2.
  Simulator sim;
  EventHandle h1 = sim.schedule(SimTime::milliseconds(1), []() {});
  sim.run();
  bool ran = false;
  EventHandle h2 = sim.schedule(SimTime::milliseconds(1), [&]() { ran = true; });
  h1.cancel();  // stale: must be a no-op even if h2 recycled h1's slot
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelledSlotRecycledForNewEvents) {
  // Cancelling releases the slot immediately; heavy schedule/cancel cycles
  // must not grow the slab without bound.
  Simulator sim;
  for (int i = 0; i < 10'000; ++i) {
    EventHandle h = sim.schedule(SimTime::seconds(1), []() {});
    h.cancel();
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
  // Still functional.
  bool ran = false;
  sim.schedule(SimTime::milliseconds(1), [&]() { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CallbackMayScheduleIntoItsOwnSlot) {
  // The running event's slot is released before the callback executes, so a
  // self-rescheduling chain can recycle one slot forever.
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) sim.schedule(SimTime::microseconds(1), chain);
  };
  sim.schedule(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 100);
}

TEST(CpuServer, SingleCoreSerializesJobs) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    server.submit(SimTime::milliseconds(10),
                  [&completions, &sim]() { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], SimTime::milliseconds(10));
  EXPECT_EQ(completions[1], SimTime::milliseconds(20));
  EXPECT_EQ(completions[2], SimTime::milliseconds(30));
}

TEST(CpuServer, MultiCoreRunsInParallel) {
  Simulator sim;
  CpuServer server{sim, "cpu", 2};
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    server.submit(SimTime::milliseconds(10),
                  [&completions, &sim]() { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  // Two at t=10 (parallel), two at t=20.
  EXPECT_EQ(completions[1], SimTime::milliseconds(10));
  EXPECT_EQ(completions[2], SimTime::milliseconds(20));
  EXPECT_EQ(completions[3], SimTime::milliseconds(20));
}

TEST(CpuServer, BusyTimeAccumulates) {
  Simulator sim;
  CpuServer server{sim, "cpu", 2};
  for (int i = 0; i < 4; ++i) server.submit(SimTime::milliseconds(5), nullptr);
  sim.run();
  EXPECT_EQ(server.busy_time(), SimTime::milliseconds(20));
  EXPECT_EQ(server.jobs_completed(), 4u);
}

TEST(CpuServer, UtilizationPercentCanExceed100) {
  Simulator sim;
  CpuServer server{sim, "cpu", 4};
  // 4 cores busy for the whole window: the OS-style reading is 400%.
  for (int i = 0; i < 4; ++i) server.submit(SimTime::milliseconds(10), nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(server.utilization_percent(SimTime::zero(), SimTime::milliseconds(10)),
                   400.0);
}

TEST(CpuServer, WaitTimesMeasured) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  server.submit(SimTime::milliseconds(10), nullptr);
  server.submit(SimTime::milliseconds(10), nullptr);  // waits 10 ms
  sim.run();
  EXPECT_EQ(server.wait_ms().count(), 2u);
  EXPECT_DOUBLE_EQ(server.wait_ms().max(), 10.0);
  EXPECT_DOUBLE_EQ(server.wait_ms().min(), 0.0);
}

TEST(CpuServer, FifoOrderWithinQueue) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    server.submit(SimTime::milliseconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CpuServer, ZeroServiceJobCompletes) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  bool done = false;
  server.submit(SimTime::zero(), [&]() { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(CpuServer, ResetStatsClearsAccounting) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  server.submit(SimTime::milliseconds(5), nullptr);
  sim.run();
  server.reset_stats();
  EXPECT_EQ(server.busy_time(), SimTime::zero());
  EXPECT_EQ(server.jobs_completed(), 0u);
  EXPECT_EQ(server.wait_ms().count(), 0u);
}

TEST(CpuServer, CompletionCallbackSubmissionQueuesFairly) {
  Simulator sim;
  CpuServer server{sim, "cpu", 1};
  std::vector<int> order;
  server.submit(SimTime::milliseconds(1), [&]() {
    order.push_back(0);
    // Submitted from a completion: must run after the already queued job.
    server.submit(SimTime::milliseconds(1), [&]() { order.push_back(2); });
  });
  server.submit(SimTime::milliseconds(1), [&]() { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CpuServer, JobsAreMoveOnlyAndRunOncePerCore) {
  Simulator sim;
  CpuServer server{sim, "cpu", 2};
  std::vector<int> done;
  // Move-only captures ride the job; three jobs on two cores: the third
  // waits for the first free core and reuses its slot.
  for (int i = 0; i < 3; ++i) {
    server.submit(SimTime::milliseconds(1 + i),
                  [&done, owned = std::make_unique<int>(i)]() { done.push_back(*owned); });
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), SimTime::milliseconds(4));  // job 2 starts at 1 ms, takes 3 ms
  EXPECT_EQ(server.jobs_completed(), 3u);
  EXPECT_EQ(server.busy_time(), SimTime::milliseconds(6));
}

}  // namespace
}  // namespace sdnbuf::sim
