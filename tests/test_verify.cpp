// Tests for the invariant-checking layer (src/verify): registry unit tests
// that deliberately break each invariant, a clean-run end-to-end check, the
// same-seed determinism regression test, and a fuzzer smoke test.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "net/packet.hpp"
#include "openflow/capture.hpp"
#include "openflow/constants.hpp"
#include "verify/invariants.hpp"
#include "verify/scenario_gen.hpp"

using namespace sdnbuf;

namespace {

net::Packet test_packet(std::uint64_t flow_id, std::uint32_t seq) {
  net::Packet p = net::make_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address::from_octets(10, 1, 0, 1), net::Ipv4Address::from_octets(10, 2, 0, 1),
      static_cast<std::uint16_t>(10000 + flow_id % 1000), 9, 500);
  p.flow_id = flow_id;
  p.seq_in_flow = seq;
  return p;
}

bool has_violation(const verify::InvariantRegistry& reg, const std::string& name) {
  for (const auto& v : reg.violations()) {
    if (v.invariant == name) return true;
  }
  return false;
}

sim::SimTime ms(long long v) { return sim::SimTime::milliseconds(v); }

}  // namespace

// The acceptance check for the whole layer: a deliberately broken buffer
// lifecycle (double-release of a buffer_id) must be detected and named.
TEST(InvariantRegistry, DetectsBufferIdDoubleRelease) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(1, 0);
  reg.on_packet_injected(p, ms(1));
  reg.on_buffer_store(42, p, /*new_unit=*/true, /*flow_granularity=*/false, ms(2));
  reg.on_buffer_release(42, p, ms(3));
  reg.on_buffer_unit_retired(42, ms(3));
  // A buggy manager hands the same buffer_id out again.
  reg.on_buffer_release(42, p, ms(4));
  EXPECT_FALSE(reg.ok());
  EXPECT_TRUE(has_violation(reg, "buffer-double-release")) << reg.report();
}

TEST(InvariantRegistry, DetectsUnitDoubleRetireAndLeak) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(2, 0);
  reg.on_buffer_store(7, p, true, true, ms(1));
  // Retiring a unit that still holds a packet is a leak.
  reg.on_buffer_unit_retired(7, ms(2));
  EXPECT_TRUE(has_violation(reg, "buffer-unit-leak")) << reg.report();
  // Retiring it again is a double retire.
  reg.on_buffer_unit_retired(7, ms(3));
  EXPECT_TRUE(has_violation(reg, "buffer-unit-double-retire")) << reg.report();
}

TEST(InvariantRegistry, DetectsFlowIdInstability) {
  verify::InvariantRegistry reg;
  const net::Packet a = test_packet(3, 0);
  const net::Packet b = test_packet(4, 0);  // different 5-tuple (src port differs)
  reg.on_buffer_store(9, a, /*new_unit=*/true, /*flow_granularity=*/true, ms(1));
  reg.on_buffer_store(9, b, /*new_unit=*/false, /*flow_granularity=*/true, ms(2));
  EXPECT_TRUE(has_violation(reg, "flow-buffer-id-unstable")) << reg.report();
}

TEST(InvariantRegistry, DetectsDuplicateAndSpuriousDelivery) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(5, 0);
  reg.on_packet_delivered(p, ms(1));
  EXPECT_TRUE(has_violation(reg, "spurious-delivery"));
  reg.on_packet_injected(p, ms(2));
  reg.on_packet_delivered(p, ms(3));
  EXPECT_TRUE(has_violation(reg, "duplicate-delivery")) << reg.report();
}

TEST(InvariantRegistry, FinalizeFlagsUnaccountedAndUndeliveredPayloads) {
  verify::InvariantRegistry vanished;
  vanished.on_packet_injected(test_packet(6, 0), ms(1));
  vanished.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(has_violation(vanished, "conservation")) << vanished.report();

  verify::InvariantRegistry dropped;
  const net::Packet p = test_packet(7, 0);
  dropped.on_packet_injected(p, ms(1));
  dropped.on_packet_dropped(p, "egress-queue", ms(2));
  dropped.finalize(/*expect_all_delivered=*/false);
  EXPECT_TRUE(dropped.ok()) << dropped.report();  // accounted, lenient mode

  verify::InvariantRegistry strict;
  strict.on_packet_injected(p, ms(1));
  strict.on_packet_dropped(p, "egress-queue", ms(2));
  strict.finalize(/*expect_all_delivered=*/true);
  EXPECT_TRUE(has_violation(strict, "undelivered")) << strict.report();
}

TEST(InvariantRegistry, DetectsUnpairedResponsesAndRulesWithoutPackets) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(8, 0);

  of::FlowMod fm;
  fm.xid = 99;  // no packet_in ever used this xid
  fm.command = of::FlowModCommand::Add;
  fm.match = of::Match::exact_from(p, 1);
  reg.on_control_message(/*to_controller=*/false, fm, ms(1));
  EXPECT_TRUE(has_violation(reg, "unpaired-flow-mod"));
  EXPECT_TRUE(has_violation(reg, "rule-without-packet")) << reg.report();

  of::PacketOut po;
  po.xid = 100;
  reg.on_control_message(false, po, ms(2));
  EXPECT_TRUE(has_violation(reg, "unpaired-packet-out"));
}

TEST(InvariantRegistry, AcceptsPairedExchange) {
  verify::InvariantRegistry reg;
  const net::Packet p = test_packet(9, 0);
  reg.on_packet_injected(p, ms(1));
  reg.on_packet_in_sent(5, p, of::kNoBuffer, ms(2));

  of::PacketIn pi;
  pi.xid = 5;
  pi.buffer_id = of::kNoBuffer;
  pi.total_len = static_cast<std::uint16_t>(p.frame_size);
  pi.in_port = 1;
  pi.data = p.serialize(p.frame_size);
  reg.on_control_message(true, pi, ms(3));

  of::FlowMod fm;
  fm.xid = 5;
  fm.command = of::FlowModCommand::Add;
  fm.match = of::Match::exact_from(p, 1);
  reg.on_control_message(false, fm, ms(4));

  of::PacketOut po;
  po.xid = 5;
  reg.on_control_message(false, po, ms(5));

  reg.on_packet_delivered(p, ms(6));
  reg.finalize(true);
  EXPECT_TRUE(reg.ok()) << reg.report();
}

TEST(InvariantRegistry, DetectsPacketInXidReuse) {
  verify::InvariantRegistry reg;
  reg.on_packet_in_sent(11, test_packet(10, 0), of::kNoBuffer, ms(1));
  reg.on_packet_in_sent(11, test_packet(10, 1), of::kNoBuffer, ms(2));
  EXPECT_TRUE(has_violation(reg, "packet-in-xid-reuse")) << reg.report();
}

TEST(InvariantRegistry, DetectsCaptureTimeRegression) {
  verify::InvariantRegistry reg;
  reg.on_control_message(true, of::Hello{1}, ms(2));
  reg.on_control_message(true, of::Hello{2}, ms(1));
  EXPECT_TRUE(has_violation(reg, "capture-time-regression")) << reg.report();
}

TEST(InvariantRegistry, DetectsMessageTheCodecCannotCarry) {
  verify::InvariantRegistry reg;
  // A NUL inside a port name ends the name on the wire: the decoded message
  // differs, and no channel could deliver what was sent.
  of::PortStatus status;
  status.desc.port_no = 2;
  status.desc.name = std::string("et\0h2", 5);
  reg.on_control_message(true, status, ms(1));
  EXPECT_TRUE(has_violation(reg, "codec-roundtrip")) << reg.report();
}

TEST(InvariantRegistry, AcceptsPortNameCutToWireWidth) {
  verify::InvariantRegistry reg;
  of::FeaturesReply features;
  features.ports.resize(2);
  features.ports[0].name = "a-port-name-longer-than-fifteen";
  features.ports[1].name = "eth1";
  reg.on_control_message(true, features, ms(1));
  of::PortStatus status;
  status.desc.name = "another-long-port-name";
  reg.on_control_message(true, status, ms(2));
  EXPECT_TRUE(reg.ok()) << reg.report();
}

// End-to-end: a healthy experiment run under every mechanism produces a
// non-trivial event stream and zero violations.
TEST(InvariantRegistryEndToEnd, CleanRunSatisfiesEveryInvariant) {
  for (const auto mode : {sw::BufferMode::NoBuffer, sw::BufferMode::PacketGranularity,
                          sw::BufferMode::FlowGranularity}) {
    verify::InvariantRegistry reg;
    core::ExperimentConfig cfg;
    cfg.mode = mode;
    cfg.buffer_capacity = 64;
    cfg.rate_mbps = 30.0;
    cfg.frame_size = 600;
    cfg.n_flows = 40;
    cfg.packets_per_flow = 3;
    cfg.seed = 42;
    cfg.testbed.observer = &reg;
    const auto r = core::run_experiment(cfg);
    reg.finalize(r.drained);
    EXPECT_TRUE(r.drained) << sw::buffer_mode_name(mode);
    EXPECT_GT(reg.events_observed(), 0u) << sw::buffer_mode_name(mode);
    EXPECT_TRUE(reg.ok()) << sw::buffer_mode_name(mode) << ": " << reg.report();
  }
}

// Determinism regression: two runs with the same seed must produce
// byte-identical control-channel traces (timestamps, direction, types, xids,
// wire sizes) for every buffer mode.
class DeterminismTest : public ::testing::TestWithParam<sw::BufferMode> {};

TEST_P(DeterminismTest, SameSeedSameCaptureTrace) {
  auto run = [this](of::ChannelCapture& capture) {
    core::ExperimentConfig cfg;
    cfg.mode = GetParam();
    cfg.buffer_capacity = 32;
    cfg.rate_mbps = 40.0;
    cfg.frame_size = 400;
    cfg.n_flows = 30;
    cfg.packets_per_flow = 2;
    cfg.seed = 1234;
    cfg.capture = &capture;
    return core::run_experiment(cfg);
  };
  of::ChannelCapture first;
  of::ChannelCapture second;
  const auto r1 = run(first);
  const auto r2 = run(second);

  EXPECT_EQ(r1.packets_delivered, r2.packets_delivered);
  EXPECT_EQ(r1.pkt_ins_sent, r2.pkt_ins_sent);
  const auto& a = first.records();
  const auto& b = second.records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp.ns(), b[i].timestamp.ns()) << "record " << i;
    ASSERT_EQ(a[i].direction, b[i].direction) << "record " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "record " << i;
    ASSERT_EQ(a[i].xid, b[i].xid) << "record " << i;
    ASSERT_EQ(a[i].wire_bytes, b[i].wire_bytes) << "record " << i;
    ASSERT_EQ(a[i].summary, b[i].summary) << "record " << i;
  }
}

// Satellite of the fault plane: fault injection must be just as
// deterministic as the fault-free path — same seed and same FaultProfile
// produce byte-identical captures and identical fault decisions.
TEST_P(DeterminismTest, SameSeedSameFaultDecisions) {
  auto run = [this](of::ChannelCapture& capture) {
    core::ExperimentConfig cfg;
    cfg.mode = GetParam();
    cfg.buffer_capacity = 32;
    cfg.rate_mbps = 40.0;
    cfg.frame_size = 400;
    cfg.n_flows = 30;
    cfg.packets_per_flow = 2;
    cfg.seed = 1234;
    cfg.capture = &capture;
    cfg.testbed.fault_profile.loss_to_controller = 0.08;
    cfg.testbed.fault_profile.loss_to_switch = 0.08;
    cfg.testbed.fault_profile.duplicate_to_controller = 0.04;
    cfg.testbed.fault_profile.duplicate_to_switch = 0.04;
    cfg.testbed.fault_profile.max_extra_delay = sim::SimTime::microseconds(500);
    return core::run_experiment(cfg);
  };
  of::ChannelCapture first;
  of::ChannelCapture second;
  const auto r1 = run(first);
  const auto r2 = run(second);

  // Identical fault decisions...
  EXPECT_EQ(r1.channel_lost_msgs, r2.channel_lost_msgs);
  EXPECT_EQ(r1.channel_duplicated_msgs, r2.channel_duplicated_msgs);
  EXPECT_GT(r1.channel_lost_msgs + r1.channel_duplicated_msgs, 0u)
      << "fault profile injected nothing; the regression is vacuous";
  EXPECT_EQ(r1.packets_delivered, r2.packets_delivered);
  EXPECT_EQ(r1.resend_pkt_ins, r2.resend_pkt_ins);
  // ...and byte-identical captures.
  const auto& a = first.records();
  const auto& b = second.records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp.ns(), b[i].timestamp.ns()) << "record " << i;
    ASSERT_EQ(a[i].direction, b[i].direction) << "record " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "record " << i;
    ASSERT_EQ(a[i].xid, b[i].xid) << "record " << i;
    ASSERT_EQ(a[i].wire_bytes, b[i].wire_bytes) << "record " << i;
    ASSERT_EQ(a[i].summary, b[i].summary) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeterminismTest,
                         ::testing::Values(sw::BufferMode::NoBuffer,
                                           sw::BufferMode::PacketGranularity,
                                           sw::BufferMode::FlowGranularity),
                         [](const auto& info) {
                           return std::string(sw::buffer_mode_name(info.param)) == "no-buffer"
                                      ? "NoBuffer"
                                      : (info.param == sw::BufferMode::PacketGranularity
                                             ? "PacketGranularity"
                                             : "FlowGranularity");
                         });

TEST(ScenarioGen, SamplingIsDeterministic) {
  const auto a = verify::sample_scenario(5);
  const auto b = verify::sample_scenario(5);
  EXPECT_EQ(a.describe(), b.describe());
  const auto c = verify::sample_scenario(6);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(ScenarioFuzz, SmokeSeedsPassAllInvariants) {
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    const auto outcome = verify::run_scenario(verify::sample_scenario(seed));
    std::string detail = outcome.scenario.describe();
    for (const auto& f : outcome.failures) detail += "\n  " + f;
    EXPECT_TRUE(outcome.ok()) << detail;
  }
}
