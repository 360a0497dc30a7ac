// Tests for the shared-memory MMU (DESIGN.md §16): the sharing-policy
// algebra (DT threshold monotonicity and fixed point, delay-driven alpha
// steering), pool/queue accounting in SharedMemoryMmu, pool conservation
// under data-plane faults, the StaticPartition byte-identity contract
// against the MMU-off build, incast absorption by the dynamic policies, and
// the egress high-water reset between experiment repetitions.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "core/fabric_testbed.hpp"
#include "net/link.hpp"
#include "obs/fabric_observatory.hpp"
#include "switchd/egress_scheduler.hpp"
#include "switchd/mmu/mmu.hpp"
#include "switchd/mmu/policy.hpp"
#include "topo/topology.hpp"
#include "verify/invariants.hpp"

using namespace sdnbuf;
using sw::mmu::PoolState;
using sw::mmu::QueueState;

namespace {

// A pool with `used` cells in flight, no reserved minima, no headroom.
PoolState pool_of(std::uint64_t total, std::uint64_t shared_used) {
  PoolState pool;
  pool.pool_cells = total;
  pool.used_cells = shared_used;
  pool.shared_used_cells = shared_used;
  return pool;
}

QueueState queue_of(std::uint64_t cells, double alpha) {
  QueueState q;
  q.cells = cells;
  q.alpha = alpha;
  return q;
}

net::Packet fabric_packet(unsigned src, unsigned dst, std::uint16_t src_port,
                          std::uint64_t flow_id, std::uint32_t frame = 1000) {
  net::Packet p = net::make_udp_packet(
      topo::Topology::host_mac(src), topo::Topology::host_mac(dst),
      topo::Topology::host_ip(src), topo::Topology::host_ip(dst), src_port, 9, frame);
  p.flow_id = flow_id;
  return p;
}

}  // namespace

// --- sharing-policy algebra ---

TEST(PolicyAlgebra, DtThresholdIsMonotoneInAlpha) {
  const auto dt = sw::mmu::make_dynamic_threshold();
  const PoolState pool = pool_of(1024, 256);
  std::uint64_t prev = 0;
  for (const double alpha : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const std::uint64_t t = dt->threshold(queue_of(0, alpha), pool);
    EXPECT_GE(t, prev) << "threshold must not shrink as alpha grows";
    prev = t;
  }
  // And monotone (non-increasing) in shared occupancy at fixed alpha.
  prev = dt->threshold(queue_of(0, 1.0), pool_of(1024, 0));
  for (const std::uint64_t used : {128u, 256u, 512u, 1000u}) {
    const std::uint64_t t = dt->threshold(queue_of(0, 1.0), pool_of(1024, used));
    EXPECT_LE(t, prev) << "threshold must collapse as the pool fills";
    prev = t;
  }
}

TEST(PolicyAlgebra, DtFixedPointIsAlphaShareOfThePool) {
  // Single hot queue, no reserve/headroom: its occupancy q is all of the
  // shared usage, so the DT ceiling is alpha * (B - q). The equilibrium
  // where the queue stalls is q* = alpha * B / (1 + alpha): at q < q* the
  // queue is under threshold (admits), at q >= q* it is at/over (rejects).
  const auto dt = sw::mmu::make_dynamic_threshold();
  const std::uint64_t pool_cells = 1200;
  for (const double alpha : {0.5, 1.0, 2.0}) {
    const auto q_star =
        static_cast<std::uint64_t>(std::floor(alpha * pool_cells / (1.0 + alpha)));
    // Strictly below the fixed point a one-cell charge is admitted.
    EXPECT_TRUE(dt->admit(queue_of(q_star - 1, alpha), pool_of(pool_cells, q_star - 1), 0, 1))
        << "alpha=" << alpha;
    // At/above it the queue has consumed its share and the charge bounces.
    EXPECT_FALSE(dt->admit(queue_of(q_star + 1, alpha), pool_of(pool_cells, q_star + 1), 0, 1))
        << "alpha=" << alpha;
  }
}

TEST(PolicyAlgebra, StaticPartitionIgnoresThePoolAndEnforcesTheNativeCap) {
  const auto st = sw::mmu::make_static_partition();
  QueueState q;
  q.native_cap = 8;
  q.native_occ = 7;
  // Pool completely exhausted: static admission only looks at the native cap.
  PoolState full = pool_of(16, 16);
  EXPECT_TRUE(st->admit(q, full, 1, 100));
  q.native_occ = 8;
  EXPECT_FALSE(st->admit(q, full, 1, 0));
  // Zero native charge (subsequent packet of a buffered flow) always admits.
  EXPECT_TRUE(st->admit(q, full, 0, 100));
  EXPECT_EQ(st->threshold(q, full), 8u);
}

TEST(PolicyAlgebra, DelayDrivenCutsTheAppetiteOfAgingQueues) {
  sw::mmu::DelayDrivenParams params;
  params.delay_target_ms = 1.0;
  const auto dd = sw::mmu::make_delay_driven(params);
  const auto dt = sw::mmu::make_dynamic_threshold();
  const PoolState pool = pool_of(1024, 200);

  // At/below the delay target the policy is exactly DT.
  QueueState fresh = queue_of(100, 1.0);
  fresh.delay_ewma_ms = 0.5;
  EXPECT_EQ(dd->threshold(fresh, pool), dt->threshold(fresh, pool));

  // An aging queue (EWMA over target) gets a strictly smaller ceiling, and
  // more delay means less appetite.
  QueueState aging = fresh;
  aging.delay_ewma_ms = 4.0;
  const std::uint64_t t4 = dd->threshold(aging, pool);
  EXPECT_LT(t4, dt->threshold(aging, pool));
  aging.delay_ewma_ms = 16.0;
  EXPECT_LT(dd->threshold(aging, pool), t4);
}

// --- SharedMemoryMmu accounting ---

TEST(SharedMemoryMmu, ChargesAndReleasesBalanceThePool) {
  sim::Simulator sim;
  sw::mmu::MmuConfig config;
  config.enabled = true;
  config.policy = sw::mmu::PolicyKind::DynamicThreshold;
  config.pool_cells = 64;
  config.cell_bytes = 256;
  sw::mmu::SharedMemoryMmu mmu{sim, config, "s1"};
  const auto q = mmu.register_queue(sw::mmu::QueueKind::OfBuffer, 0, 0, 16);

  EXPECT_EQ(mmu.cells_for(1), 1u);
  EXPECT_EQ(mmu.cells_for(256), 1u);
  EXPECT_EQ(mmu.cells_for(257), 2u);

  ASSERT_TRUE(mmu.try_admit(q, 1, 1000));  // 4 cells
  ASSERT_TRUE(mmu.try_admit(q, 1, 100));   // 1 cell
  EXPECT_EQ(mmu.pool_cells_used(), 5u);
  EXPECT_EQ(mmu.queue_cells(q), 5u);
  EXPECT_EQ(mmu.queue_native(q), 2u);
  EXPECT_EQ(mmu.peak_pool_cells(), 5u);
  EXPECT_EQ(mmu.total_admitted(), 2u);

  // Split release: cells at departure, the native unit at deferred reclaim.
  mmu.release(q, 0, 1000);
  EXPECT_EQ(mmu.pool_cells_used(), 1u);
  EXPECT_EQ(mmu.queue_native(q), 2u);
  mmu.release(q, 1, 0);
  mmu.release(q, 1, 100);
  EXPECT_EQ(mmu.pool_cells_used(), 0u);
  EXPECT_EQ(mmu.queue_native(q), 0u);
  EXPECT_EQ(mmu.peak_pool_cells(), 5u) << "draining must not lower the peak";

  mmu.reset_counters();
  EXPECT_EQ(mmu.total_admitted(), 0u);
  EXPECT_EQ(mmu.peak_pool_cells(), 0u) << "peak re-bases at current (empty) occupancy";
}

TEST(SharedMemoryMmu, PoolExhaustionRejectsUnderTheDynamicPolicies) {
  sim::Simulator sim;
  sw::mmu::MmuConfig config;
  config.enabled = true;
  config.policy = sw::mmu::PolicyKind::DynamicThreshold;
  config.pool_cells = 8;
  config.cell_bytes = 256;
  config.alpha = 8.0;  // threshold permissive: exhaustion is what rejects
  sw::mmu::SharedMemoryMmu mmu{sim, config, "s1"};
  const auto q = mmu.register_queue(sw::mmu::QueueKind::Egress, 1, 0, 1 << 20);
  ASSERT_TRUE(mmu.try_admit(q, 1500, 1500));  // 6 cells
  EXPECT_FALSE(mmu.try_admit(q, 1500, 1500)) << "6 + 6 cells cannot fit an 8-cell pool";
  EXPECT_EQ(mmu.rejected(q), 1u);
  EXPECT_EQ(mmu.total_rejected(), 1u);
  ASSERT_TRUE(mmu.try_admit(q, 256, 256)) << "a 1-cell charge still fits";
  EXPECT_EQ(mmu.pool_cells_used(), 7u);
}

TEST(SharedMemoryMmu, ObserverLedgerClosesOverAdmitReleaseStream) {
  sim::Simulator sim;
  sw::mmu::MmuConfig config;
  config.enabled = true;
  config.policy = sw::mmu::PolicyKind::DelayDriven;
  config.pool_cells = 128;
  config.reserved_cells = 4;
  sw::mmu::SharedMemoryMmu mmu{sim, config, "s1"};
  verify::InvariantRegistry registry;
  mmu.set_observer(&registry);
  const auto a = mmu.register_queue(sw::mmu::QueueKind::OfBuffer, 0, 0, 32);
  const auto b = mmu.register_queue(sw::mmu::QueueKind::Egress, 1, 0, 1 << 20);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mmu.try_admit(a, 1, 700));
    ASSERT_TRUE(mmu.try_admit(b, 500, 500));
    mmu.record_queue_delay(b, sim::SimTime::microseconds(300));
  }
  for (int i = 0; i < 10; ++i) {
    mmu.release(a, 0, 700);
    mmu.release(a, 1, 0);
    mmu.release(b, 500, 500);
  }
  EXPECT_EQ(mmu.pool_cells_used(), 0u);
  EXPECT_TRUE(registry.ok()) << registry.report();
  EXPECT_EQ(registry.events_observed(), 50u);  // 20 admits + 30 releases
}

// --- incast absorption: dynamic sharing vs static partitioning ---

TEST(IncastAbsorption, DynamicThresholdLendsIdleQueuesShareToTheHotOne) {
  // Four egress queues over one pool. Static partitioning caps the hot queue
  // at its fixed quarter; DT lets it borrow the idle queues' unused share up
  // to the alpha=1 fixed point (half the pool) — the mechanism behind
  // absorbing an incast fan-in that static splits drop.
  const std::uint64_t pool_cells = 1024;
  const std::uint32_t cell = 256;
  const std::uint64_t static_share_bytes = pool_cells / 4 * cell;
  auto fill_hot_queue = [&](sw::mmu::PolicyKind policy) {
    sim::Simulator sim;
    sw::mmu::MmuConfig config;
    config.enabled = true;
    config.policy = policy;
    config.pool_cells = pool_cells;
    config.cell_bytes = cell;
    sw::mmu::SharedMemoryMmu mmu{sim, config, "s1"};
    std::vector<sw::mmu::SharedMemoryMmu::QueueHandle> queues;
    for (std::uint16_t port = 1; port <= 4; ++port) {
      queues.push_back(
          mmu.register_queue(sw::mmu::QueueKind::Egress, port, 0, static_share_bytes));
    }
    std::uint64_t admitted = 0;
    while (mmu.try_admit(queues[0], cell, cell)) ++admitted;  // 1-cell frames
    return admitted;
  };
  const std::uint64_t static_cells = fill_hot_queue(sw::mmu::PolicyKind::StaticPartition);
  const std::uint64_t dt_cells = fill_hot_queue(sw::mmu::PolicyKind::DynamicThreshold);
  EXPECT_EQ(static_cells, pool_cells / 4) << "static partitioning stops at the fixed slice";
  EXPECT_EQ(dt_cells, pool_cells / 2) << "DT alpha=1 fixed point is half the pool";
  EXPECT_GT(dt_cells, static_cells);
}

// --- StaticPartition byte-identity against the MMU-off build ---

// The MMU-off path executes the untouched legacy admission code (the same
// instruction stream as the pre-MMU build); StaticPartition must reproduce
// its decisions exactly, so every observable of the run matches.
TEST(StaticIdentity, SingleSwitchRunsAreIdenticalWithStaticMmu) {
  for (const sw::BufferMode mode :
       {sw::BufferMode::PacketGranularity, sw::BufferMode::FlowGranularity}) {
    core::ExperimentConfig base;
    base.mode = mode;
    base.n_flows = 60;
    base.packets_per_flow = 3;
    base.rate_mbps = 60.0;
    base.buffer_capacity = 16;  // small: the legacy cap must actually reject
    base.seed = 11;
    const core::ExperimentResult off = core::run_experiment(base);

    core::ExperimentConfig with = base;
    with.testbed.switch_config.mmu.enabled = true;
    with.testbed.switch_config.mmu.policy = sw::mmu::PolicyKind::StaticPartition;
    const core::ExperimentResult st = core::run_experiment(with);

    EXPECT_EQ(off.packets_sent, st.packets_sent);
    EXPECT_EQ(off.packets_delivered, st.packets_delivered);
    EXPECT_EQ(off.pkt_ins_sent, st.pkt_ins_sent);
    EXPECT_EQ(off.full_frame_pkt_ins, st.full_frame_pkt_ins)
        << "static admission must reject exactly when the flat cap did";
    EXPECT_EQ(off.to_controller_bytes, st.to_controller_bytes);
    EXPECT_EQ(off.to_switch_bytes, st.to_switch_bytes);
    EXPECT_EQ(off.setup_ms.values(), st.setup_ms.values());
    EXPECT_EQ(off.buffer_avg_units, st.buffer_avg_units);
    EXPECT_EQ(off.buffer_max_units, st.buffer_max_units);
    EXPECT_EQ(off.mmu_rejected, 0u);
    EXPECT_EQ(st.mmu_rejected, off.full_frame_pkt_ins)
        << "every legacy rejection shows up as an MMU rejection and vice versa";
  }
}

TEST(StaticIdentity, FabricMultihopRunsAreIdenticalWithStaticMmu) {
  core::FabricExperimentConfig base;
  base.topology = topo::make_leaf_spine(2, 2, 2);
  base.mode = sw::BufferMode::PacketGranularity;
  base.buffer_capacity = 8;
  base.pattern = host::TrafficPattern::Incast;
  base.incast_target = 0;
  base.incast_fanin = 3;
  base.duration_s = 0.2;
  base.flow_arrival_per_s = 400.0;
  base.seed = 23;
  const core::FabricExperimentResult off = core::run_fabric_experiment(base);

  core::FabricExperimentConfig with = base;
  with.fabric.switch_config.mmu.enabled = true;
  with.fabric.switch_config.mmu.policy = sw::mmu::PolicyKind::StaticPartition;
  const core::FabricExperimentResult st = core::run_fabric_experiment(with);

  EXPECT_EQ(off.packets_sent, st.packets_sent);
  EXPECT_EQ(off.packets_delivered, st.packets_delivered);
  EXPECT_EQ(off.pkt_ins, st.pkt_ins);
  EXPECT_EQ(off.control_bytes, st.control_bytes);
  EXPECT_EQ(off.delivered, st.delivered) << "identical payload multiset, payload for payload";
  EXPECT_EQ(off.buffer_max_units, st.buffer_max_units);
  EXPECT_EQ(off.mmu_rejected, 0u);
}

// --- INT stamps carry the sharing dynamics ---

TEST(IntHarvest, HeatmapAggregatesPoolOccupancyAndQueueThresholds) {
  obs::FabricObservatory obsy;
  core::FabricExperimentConfig cfg;
  cfg.topology = topo::make_leaf_spine(2, 2, 2);
  cfg.mode = sw::BufferMode::PacketGranularity;
  cfg.buffer_capacity = 16;
  cfg.pattern = host::TrafficPattern::Incast;
  cfg.incast_target = 0;
  cfg.incast_fanin = 3;
  cfg.duration_s = 0.15;
  cfg.flow_arrival_per_s = 500.0;
  cfg.seed = 47;
  cfg.observatory = &obsy;
  cfg.fabric.switch_config.telemetry_int_depth = 8;
  cfg.fabric.switch_config.mmu.enabled = true;
  cfg.fabric.switch_config.mmu.policy = sw::mmu::PolicyKind::DynamicThreshold;
  cfg.fabric.switch_config.mmu.pool_cells = 1024;
  const core::FabricExperimentResult r = core::run_fabric_experiment(cfg);
  ASSERT_GT(r.packets_delivered, 0u);
  ASSERT_GT(obsy.stamps_harvested(), 0u);

  // Every harvested stamp from an MMU switch carries a live DT threshold, and
  // at least one egress saw the shared pool occupied at enqueue time.
  std::uint32_t pool_max = 0, threshold_max = 0;
  for (const auto& [key, cell] : obsy.heatmap()) {
    EXPECT_GT(cell.queue_threshold_min, 0u)
        << "switch " << key.first << " port " << key.second << " stamped no threshold";
    EXPECT_GE(cell.queue_threshold_max, cell.queue_threshold_min);
    pool_max = std::max(pool_max, cell.pool_cells_max);
    threshold_max = std::max(threshold_max, cell.queue_threshold_max);
  }
  EXPECT_GT(pool_max, 0u);
  EXPECT_GT(threshold_max, 0u);
}

// --- pool conservation under data-plane faults ---

TEST(PoolConservation, HoldsUnderLinkFlapsAndSwitchCrash) {
  const topo::Topology topology = topo::make_leaf_spine(2, 2, 2);
  core::FabricExperimentConfig cfg;
  cfg.topology = topology;
  cfg.mode = sw::BufferMode::FlowGranularity;
  cfg.buffer_capacity = 16;
  cfg.duration_s = 0.2;
  cfg.flow_arrival_per_s = 300.0;
  cfg.seed = 31;
  cfg.fabric.switch_config.mmu.enabled = true;
  cfg.fabric.switch_config.mmu.policy = sw::mmu::PolicyKind::DynamicThreshold;
  cfg.fabric.switch_config.mmu.pool_cells = 512;

  // Flap every inter-switch link and crash+restart one spine mid-run.
  for (std::size_t li = 0; li < topology.links().size(); ++li) {
    if (topology.links()[li].host_edge) continue;
    core::LinkFaultSpec spec;
    spec.link_index = li;
    spec.schedule = net::LinkFaultSchedule::flap(1000003 * li + 7, sim::SimTime::milliseconds(20),
                                                 sim::SimTime::milliseconds(150), 0.05, 0.01);
    if (!spec.schedule.empty()) cfg.fabric.link_faults.push_back(spec);
  }
  core::SwitchCrashSpec crash;
  crash.switch_index = 2;  // a spine
  crash.crash_at = sim::SimTime::milliseconds(60);
  crash.restart_at = sim::SimTime::milliseconds(90);
  cfg.fabric.switch_crashes.push_back(crash);

  std::vector<std::unique_ptr<verify::InvariantRegistry>> registries;
  for (unsigned i = 0; i < topology.n_switches(); ++i) {
    registries.push_back(std::make_unique<verify::InvariantRegistry>());
    registries.back()->set_allow_revisits(true);
    cfg.fabric.subscribers.emplace_back().subscribe(registries.back().get());
  }
  const core::FabricExperimentResult r = core::run_fabric_experiment(cfg);
  EXPECT_GT(r.packets_sent, 0u);
  std::uint64_t events = 0;
  for (unsigned i = 0; i < registries.size(); ++i) {
    registries[i]->finalize(/*expect_all_delivered=*/false);
    events += registries[i]->events_observed();
    EXPECT_TRUE(registries[i]->ok()) << "switch " << i << ": " << registries[i]->report();
  }
  EXPECT_GT(events, 0u) << "observers saw no events (hooks unwired?)";
}

// --- egress high-water marks reset between repetitions ---

TEST(HighWaterReset, ResetStatisticsClearsThePerPortMarks) {
  core::FabricConfig config;
  config.topology = topo::make_leaf_spine(1, 2, 2);
  config.routing = core::FabricRouting::TopologyPerHop;
  config.switch_config.buffer_mode = sw::BufferMode::PacketGranularity;
  core::FabricTestbed bed{config};

  // A same-instant burst from every host piles packets into egress queues.
  for (std::uint32_t i = 0; i < 8; ++i) {
    bed.inject_from_host(i % 4, fabric_packet(i % 4, (i + 1) % 4, 10000 + i, 1 + i));
  }
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(300));

  auto max_highwater = [&]() {
    std::uint64_t hw = 0;
    for (unsigned i = 0; i < bed.n_switches(); ++i) {
      for (const topo::Topology::Adjacency& adj :
           bed.topology().adjacency(bed.topology().switch_id(i))) {
        hw = std::max(hw, bed.switch_at(i).port_scheduler(adj.port).highwater_packets());
      }
    }
    return hw;
  };
  EXPECT_GT(max_highwater(), 0u) << "the warm-up burst must have queued somewhere";

  // The repetition boundary: marks re-base at the (drained) current backlog
  // instead of carrying the warm-up peak into the measured run.
  bed.reset_statistics();
  EXPECT_EQ(max_highwater(), 0u);

  bed.stop();
  bed.sim().run();
}
