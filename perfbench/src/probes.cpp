#include "probes.hpp"

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "openflow/messages.hpp"
#include "report.hpp"
#include "sim/simulator.hpp"
#include "switchd/flow_buffer.hpp"
#include "switchd/flow_table.hpp"
#include "switchd/mmu/mmu.hpp"
#include "switchd/packet_buffer.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace perfbench {
namespace {

namespace net = sdnbuf::net;
namespace of = sdnbuf::of;
namespace sim = sdnbuf::sim;
namespace sw = sdnbuf::sw;
namespace topo = sdnbuf::topo;

constexpr int kBatches = 7;
constexpr std::size_t kTableCapacity = 4096;

// Keeps results observable so the timed work is not optimized away.
volatile std::uint64_t g_sink = 0;

// Flow `i` of a workload: a 1000-byte UDP packet with a distinct 5-tuple.
net::Packet flow_packet(std::uint64_t i) {
  const auto src = static_cast<unsigned>(i % 128);
  const auto dst = static_cast<unsigned>((i / 128 + 1 + src) % 128);
  return net::make_udp_packet(topo::Topology::host_mac(src), topo::Topology::host_mac(dst),
                              topo::Topology::host_ip(src), topo::Topology::host_ip(dst),
                              static_cast<std::uint16_t>(1024 + i / 16384),
                              static_cast<std::uint16_t>(i % 16384 + 1), 1000);
}

sw::FlowEntry flow_entry(const net::Packet& p) {
  sw::FlowEntry e;
  e.match = of::Match::exact_from(p, 1);
  e.priority = 100;
  e.actions = {of::OutputAction{2, 0}};
  return e;
}

// Median over kBatches of (batch wall / ops). `batch` runs `ops` operations;
// `prepare` (untimed) resets state before each batch.
template <typename Prepare, typename Batch>
double per_op_seconds(std::size_t ops, Prepare prepare, Batch batch) {
  sdnbuf::util::Samples costs;
  for (int b = 0; b < kBatches; ++b) {
    prepare();
    const auto t0 = Clock::now();
    batch();
    costs.add(seconds_since(t0) / static_cast<double>(ops));
  }
  return costs.median();
}

}  // namespace

FlowTableCost probe_flow_table(std::size_t occupancy) {
  constexpr std::size_t kAdds = 256;
  constexpr std::size_t kLookups = 4096;
  std::vector<net::Packet> installed;
  for (std::size_t i = 0; i < occupancy; ++i) installed.push_back(flow_packet(i));
  std::vector<net::Packet> fresh;
  for (std::size_t i = 0; i < kLookups; ++i) fresh.push_back(flow_packet(occupancy + i));

  sim::SimTime now;
  std::unique_ptr<sw::FlowTable> table;
  const auto prefill = [&]() {
    table = std::make_unique<sw::FlowTable>(kTableCapacity);
    for (std::size_t i = 0; i < installed.size(); ++i) {
      now = sim::SimTime::microseconds(static_cast<std::int64_t>(i));
      (void)table->add(flow_entry(installed[i]), now);
    }
  };

  FlowTableCost cost;
  cost.add_us = 1e6 * per_op_seconds(kAdds, prefill, [&]() {
                  for (std::size_t i = 0; i < kAdds; ++i) {
                    now = now + sim::SimTime::microseconds(1);
                    g_sink = g_sink + table->add(flow_entry(fresh[i]), now).evicted.size();
                  }
                });
  prefill();
  cost.lookup_hit_us = 1e6 * per_op_seconds(kLookups, [] {}, [&]() {
                         for (std::size_t i = 0; i < kLookups; ++i) {
                           const net::Packet& p = installed[i % installed.size()];
                           g_sink = g_sink + (table->lookup(p, 1, now) != nullptr);
                         }
                       });
  cost.lookup_miss_us = 1e6 * per_op_seconds(kLookups, [] {}, [&]() {
                          for (const net::Packet& p : fresh) {
                            g_sink = g_sink + (table->lookup(p, 1, now) != nullptr);
                          }
                        });
  return cost;
}

double probe_encode_pktin_us(std::size_t data_bytes) {
  constexpr std::size_t kOps = 20000;
  of::PacketIn pin;
  pin.xid = 7;
  pin.buffer_id = 42;
  pin.total_len = 1000;
  pin.in_port = 1;
  pin.data = flow_packet(3).serialize(data_bytes);
  const of::OfMessage msg = pin;
  std::vector<std::uint8_t> out;
  return 1e6 * per_op_seconds(kOps, [] {}, [&]() {
           for (std::size_t i = 0; i < kOps; ++i) {
             of::encode_message_into(msg, out);
             g_sink = g_sink + out.size();
           }
         });
}

double probe_decode_flowmod_us() {
  constexpr std::size_t kOps = 20000;
  of::FlowMod fm;
  fm.xid = 9;
  fm.match = of::Match::exact_from(flow_packet(5), 1);
  fm.idle_timeout_s = 5;
  fm.buffer_id = 17;
  fm.actions = {of::OutputAction{2, 0}};
  const std::vector<std::uint8_t> wire = of::encode_message(fm);
  return 1e6 * per_op_seconds(kOps, [] {}, [&]() {
           for (std::size_t i = 0; i < kOps; ++i) {
             g_sink = g_sink + of::decode_message(wire).has_value();
           }
         });
}

double probe_buffer_store_release_us() {
  constexpr std::size_t kOps = 4096;
  constexpr std::size_t kBurst = 128;
  std::vector<net::Packet> packets;
  for (std::size_t i = 0; i < kBurst; ++i) packets.push_back(flow_packet(i));
  sim::Simulator s;
  sw::PacketBufferManager buffer(s, 256, sim::SimTime::microseconds(10));
  std::vector<std::uint32_t> ids(kBurst);
  return 1e6 * per_op_seconds(kOps, [] {}, [&]() {
           for (std::size_t done = 0; done < kOps; done += kBurst) {
             for (std::size_t i = 0; i < kBurst; ++i) ids[i] = buffer.store(packets[i]).value_or(0);
             for (const std::uint32_t id : ids) g_sink = g_sink + buffer.release(id).has_value();
             s.run();  // deferred unit reclamation
           }
         });
}

double probe_flowbuf_burst_release_us() {
  constexpr std::size_t kBursts = 512;
  constexpr std::size_t kBurstPackets = 20;
  sim::Simulator s;
  sw::FlowBufferManager buffer(s, 256, sim::SimTime::microseconds(10));
  std::uint64_t flow = 0;
  return 1e6 * per_op_seconds(kBursts, [] {}, [&]() {
           for (std::size_t b = 0; b < kBursts; ++b, ++flow) {
             const net::Packet p = flow_packet(flow % 16384);
             std::uint32_t id = 0;
             for (std::size_t i = 0; i < kBurstPackets; ++i) {
               if (const auto r = buffer.store(p, 1)) id = r->buffer_id;
             }
             g_sink = g_sink + buffer.release_all(id).size();
             s.run();
           }
         });
}

double probe_mmu_admit_release_ns() {
  constexpr std::size_t kOps = 200000;
  sim::Simulator s;
  sw::mmu::MmuConfig config;
  config.enabled = true;
  config.policy = sw::mmu::PolicyKind::DynamicThreshold;
  config.pool_cells = 1536;
  config.headroom_cells = 32;
  config.reserved_cells = 2;
  sw::mmu::SharedMemoryMmu mmu(s, config, "probe");
  std::vector<sw::mmu::SharedMemoryMmu::QueueHandle> queues;
  for (std::uint16_t port = 1; port <= 6; ++port) {
    for (unsigned cls = 0; cls < 4; ++cls) {
      queues.push_back(mmu.register_queue(sw::mmu::QueueKind::Egress, port, cls, 16 * 1024));
    }
  }
  return 1e9 * per_op_seconds(kOps, [] {}, [&]() {
           for (std::size_t i = 0; i < kOps; ++i) {
             const auto q = queues[i % queues.size()];
             if (mmu.try_admit(q, 1000, 1000)) mmu.release(q, 1000, 1000);
           }
         });
}

double probe_scheduler_ns() {
  constexpr std::size_t kEvents = 100000;
  return 1e9 * per_op_seconds(kEvents, [] {}, [&]() {
           sim::Simulator s;
           std::uint64_t fired = 0;
           for (std::size_t i = 0; i < kEvents; ++i) {
             const auto delay = static_cast<std::int64_t>((i * 7919) % 1000);
             s.schedule(sim::SimTime::microseconds(delay), [&fired]() { ++fired; });
           }
           s.run();
           g_sink = g_sink + fired;
         });
}

double probe_route_path_us() {
  constexpr std::size_t kOps = 4096;
  const topo::Topology topology = topo::make_fat_tree(8);
  const topo::Router router(topology, 1);
  std::vector<net::FlowKey> flows;
  for (std::size_t i = 0; i < kOps; ++i) flows.push_back(flow_packet(i).flow_key());
  return 1e6 * per_op_seconds(kOps, [] {}, [&]() {
           for (std::size_t i = 0; i < kOps; ++i) {
             const topo::NodeId from = topology.switch_id(static_cast<unsigned>(i % 32));
             const topo::NodeId to = topology.host_id(static_cast<unsigned>((i * 37) % 128));
             g_sink = g_sink + router.path(from, to, flows[i]).size();
           }
         });
}

}  // namespace perfbench
