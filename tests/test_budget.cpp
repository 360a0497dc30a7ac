// Allocation budgets: exact heap-allocation counts for the paper's E1 path,
// pinned so a change that adds per-flow copies or construction work fails
// here instead of surfacing as a wall-time drift. Counts come from a
// test-local global operator new; each is taken after one warm run, so
// function-local statics are already built.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/experiment.hpp"
#include "core/testbed.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc()/free() with
// a new/delete expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sdnbuf::core {
namespace {

// Fig. 1 at buffer-256, 50 Mbps, one-packet flows (the e1-16k shape).
ExperimentConfig e1_config(std::uint64_t n_flows) {
  ExperimentConfig config;
  config.mode = sw::BufferMode::PacketGranularity;
  config.buffer_capacity = 256;
  config.rate_mbps = 50.0;
  config.frame_size = 1000;
  config.n_flows = n_flows;
  config.packets_per_flow = 1;
  return config;
}

std::uint64_t allocations_of_run(std::uint64_t n_flows) {
  const std::uint64_t before = g_allocations.load();
  const ExperimentResult r = run_experiment(e1_config(n_flows));
  const std::uint64_t after = g_allocations.load();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.packets_delivered, n_flows);
  return after - before;
}

// Allocations one more flow costs: the difference of two runs that differ
// only in flow count, so fixed construction and warm-up cost cancels.
TEST(Budget, AllocationsPerE1Flow) {
  constexpr std::uint64_t kFlows = 2048;
  (void)allocations_of_run(kFlows);  // warm run
  const std::uint64_t small = allocations_of_run(kFlows);
  const std::uint64_t large = allocations_of_run(2 * kFlows);
  ASSERT_GT(large, small);
  const double per_flow = static_cast<double>(large - small) / static_cast<double>(kFlows);
  RecordProperty("allocations_per_flow", std::to_string(per_flow));
  std::printf("allocations per E1 flow: %.3f\n", per_flow);
  // 12.59 with typed messages moved across the channel (53.77 when every
  // message was encoded, decoded and copied).
  EXPECT_LE(per_flow, 13.0);
}

TEST(Budget, TestbedBuildAndWarmUp) {
  const auto build = [] {
    const std::uint64_t before = g_allocations.load();
    {
      TestbedConfig config;
      config.switch_config.buffer_mode = sw::BufferMode::PacketGranularity;
      config.switch_config.buffer_capacity = 256;
      Testbed bed{config};
      bed.warm_up();
    }
    return g_allocations.load() - before;
  };
  (void)build();  // warm run
  const std::uint64_t count = build();
  RecordProperty("testbed_allocations", std::to_string(count));
  std::printf("allocations per Testbed build + warm_up: %llu\n",
              static_cast<unsigned long long>(count));
  // 69 with lazily grown CPU-station and channel queues (133 before).
  EXPECT_LE(count, 69u);
}

}  // namespace
}  // namespace sdnbuf::core
