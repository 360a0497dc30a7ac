// Unit tests for the metrics library: time-weighted occupancy and the
// per-flow delay recorder (the §III.B metric definitions).
#include <gtest/gtest.h>

#include "metrics/delay_recorder.hpp"
#include "metrics/occupancy.hpp"

namespace sdnbuf::metrics {
namespace {

using sim::SimTime;

// The switch reports a packet_in with the packet that missed.
void packet_in_sent(DelayRecorder& rec, std::uint64_t flow_id, SimTime now) {
  net::Packet packet;
  packet.flow_id = flow_id;
  rec.on_packet_in_sent(/*xid=*/1, packet, /*buffer_id=*/0, now);
}

TEST(Occupancy, TracksCurrentAndMax) {
  OccupancyTracker occ{SimTime::zero()};
  occ.increment(SimTime::milliseconds(1));
  occ.increment(SimTime::milliseconds(2));
  occ.increment(SimTime::milliseconds(3));
  occ.decrement(SimTime::milliseconds(4));
  EXPECT_EQ(occ.current(), 2u);
  EXPECT_EQ(occ.max(), 3u);
}

TEST(Occupancy, TimeWeightedMean) {
  OccupancyTracker occ{SimTime::zero()};
  // 0 units for 1 s, then 10 units for 1 s -> mean 5 over 2 s.
  occ.set(10, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(occ.time_weighted_mean(SimTime::seconds(2)), 5.0);
}

TEST(Occupancy, MeanIncludesOpenInterval) {
  OccupancyTracker occ{SimTime::zero()};
  occ.set(4, SimTime::zero());
  // Constant 4 units: mean is 4 at any observation time.
  EXPECT_DOUBLE_EQ(occ.time_weighted_mean(SimTime::seconds(3)), 4.0);
}

TEST(Occupancy, ResetKeepsGaugeClearsStats) {
  OccupancyTracker occ{SimTime::zero()};
  occ.set(8, SimTime::seconds(1));
  occ.reset(SimTime::seconds(2));
  EXPECT_EQ(occ.current(), 8u);
  EXPECT_EQ(occ.max(), 8u);
  // After reset the mean integrates only from the reset point.
  EXPECT_DOUBLE_EQ(occ.time_weighted_mean(SimTime::seconds(3)), 8.0);
}

TEST(Occupancy, ZeroWindowMeanIsCurrent) {
  OccupancyTracker occ{SimTime::zero()};
  occ.set(3, SimTime::zero());
  EXPECT_DOUBLE_EQ(occ.time_weighted_mean(SimTime::zero()), 3.0);
}

TEST(DelayRecorder, SetupDelayDefinition) {
  DelayRecorder rec;
  // Flow setup delay: first packet in -> that (first) packet out.
  rec.on_packet_arrival(1, SimTime::milliseconds(10));
  rec.on_packet_departure(1, SimTime::milliseconds(13));
  rec.on_packet_departure(1, SimTime::milliseconds(20));
  const auto result = rec.finalize();
  ASSERT_EQ(result.setup_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(result.setup_ms.mean(), 3.0);
  // Forwarding delay: first in -> LAST packet out.
  ASSERT_EQ(result.forwarding_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(result.forwarding_ms.mean(), 10.0);
}

TEST(DelayRecorder, ControllerAndSwitchDelaySplit) {
  DelayRecorder rec;
  rec.on_packet_arrival(1, SimTime::milliseconds(0));
  packet_in_sent(rec, 1, SimTime::milliseconds(1));
  rec.on_response_arrival(1, SimTime::milliseconds(2));
  rec.on_packet_departure(1, SimTime::milliseconds(5));
  const auto result = rec.finalize();
  ASSERT_EQ(result.controller_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(result.controller_ms.mean(), 1.0);   // pkt_in out -> response in
  EXPECT_DOUBLE_EQ(result.setup_ms.mean(), 5.0);
  EXPECT_DOUBLE_EQ(result.switch_ms.mean(), 4.0);       // setup - controller
}

TEST(DelayRecorder, OnlyFirstEventsCount) {
  DelayRecorder rec;
  rec.on_packet_arrival(1, SimTime::milliseconds(0));
  rec.on_packet_arrival(1, SimTime::milliseconds(100));  // ignored
  packet_in_sent(rec, 1, SimTime::milliseconds(1));
  packet_in_sent(rec, 1, SimTime::milliseconds(50));  // retransmission: ignored
  rec.on_response_arrival(1, SimTime::milliseconds(2));
  rec.on_response_arrival(1, SimTime::milliseconds(60));  // second response: ignored
  rec.on_packet_departure(1, SimTime::milliseconds(3));
  const auto result = rec.finalize();
  EXPECT_DOUBLE_EQ(result.setup_ms.mean(), 3.0);
  EXPECT_DOUBLE_EQ(result.controller_ms.mean(), 1.0);
}

TEST(DelayRecorder, UntrackedFlowIgnored) {
  DelayRecorder rec;
  rec.on_packet_arrival(net::kUntrackedFlow, SimTime::zero());
  packet_in_sent(rec, net::kUntrackedFlow, SimTime::zero());
  rec.on_response_arrival(net::kUntrackedFlow, SimTime::milliseconds(1));
  rec.on_packet_departure(net::kUntrackedFlow, SimTime::milliseconds(1));
  const auto result = rec.finalize();
  EXPECT_EQ(result.flows_seen, 0u);
  EXPECT_EQ(result.packets_departed, 0u);
}

TEST(DelayRecorder, IncompleteFlowsProduceNoSamples) {
  DelayRecorder rec;
  rec.on_packet_arrival(1, SimTime::zero());  // never departs
  rec.on_packet_departure(2, SimTime::zero());       // never arrived (shouldn't happen)
  const auto result = rec.finalize();
  EXPECT_EQ(result.flows_seen, 2u);
  EXPECT_EQ(result.flows_complete, 0u);
  EXPECT_EQ(result.setup_ms.count(), 0u);
}

TEST(DelayRecorder, MultipleFlowsAggregate) {
  DelayRecorder rec;
  for (std::uint64_t f = 0; f < 10; ++f) {
    rec.on_packet_arrival(f, SimTime::milliseconds(static_cast<int>(f)));
    rec.on_packet_departure(f, SimTime::milliseconds(static_cast<int>(f + 1 + f % 3)));
  }
  const auto result = rec.finalize();
  EXPECT_EQ(result.flows_seen, 10u);
  EXPECT_EQ(result.flows_complete, 10u);
  EXPECT_EQ(result.setup_ms.count(), 10u);
  // setup delays are 1 + f%3 ms: mean = (4*1 + 3*2 + 3*3) / 10.
  EXPECT_NEAR(result.setup_ms.mean(), (4 * 1 + 3 * 2 + 3 * 3) / 10.0, 1e-9);
}

TEST(DelayRecorder, PacketCountersAccumulate) {
  DelayRecorder rec;
  rec.on_packet_arrival(1, SimTime::zero());
  for (int i = 0; i < 5; ++i) rec.on_packet_departure(1, SimTime::milliseconds(i + 1));
  const auto result = rec.finalize();
  EXPECT_EQ(result.packets_departed, 5u);
}

TEST(DelayRecorder, RecordAccessor) {
  DelayRecorder rec;
  EXPECT_EQ(rec.record(1), nullptr);
  rec.on_packet_arrival(1, SimTime::milliseconds(3));
  const auto* r = rec.record(1);
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->first_arrival.has_value());
  EXPECT_EQ(*r->first_arrival, SimTime::milliseconds(3));
  EXPECT_FALSE(r->first_departure.has_value());
}

}  // namespace
}  // namespace sdnbuf::metrics
