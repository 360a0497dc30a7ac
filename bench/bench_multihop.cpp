// Extension: multi-switch paths (the data-center context of §I).
//
// A new flow's first packets miss at EVERY switch on the path, so the
// reactive overhead the paper measures on one switch multiplies per hop —
// and so does the buffer's saving. This bench runs the E1-style workload
// over chains of 1-4 switches and reports total control bytes, requests,
// and end-to-end first-packet latency per mechanism.
#include <iostream>

#include "common.hpp"
#include "core/testbed.hpp"
#include "host/traffic_gen.hpp"
#include "util/csv.hpp"

namespace {

using namespace sdnbuf;

struct ChainResult {
  std::uint64_t pkt_ins = 0;
  std::uint64_t control_bytes = 0;
  double first_packet_ms = 0.0;  // mean end-to-end latency of flow-first packets
  std::uint64_t delivered = 0;
};

ChainResult run_chain(unsigned hops, sw::BufferMode mode, std::uint64_t seed) {
  core::TestbedConfig config;
  config.n_switches = hops;
  config.switch_config.buffer_mode = mode;
  config.seed = seed;
  core::Testbed bed{config};
  bed.warm_up();

  host::TrafficConfig traffic;
  traffic.rate_mbps = 50.0;
  traffic.n_flows = 300;
  traffic.src_mac = bed.host1_mac();
  traffic.dst_mac = bed.host2_mac();
  traffic.src_ip_base = bed.host1_ip();
  traffic.dst_ip = bed.host2_ip();
  host::TrafficGenerator gen{bed.sim(), traffic, seed * 3 + 1,
                             [&bed](const net::Packet& p) { bed.inject_from_host1(p); }};
  gen.start();
  const sim::SimTime deadline = bed.sim().now() + sim::SimTime::seconds(10);
  while (bed.sim().now() < deadline &&
         bed.sink2().packets_received() < gen.total_packets()) {
    bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(20));
  }
  bed.stop();
  bed.sim().run();

  ChainResult r;
  r.pkt_ins = bed.fabric().total_pkt_ins();
  r.control_bytes = bed.fabric().total_control_bytes();
  r.first_packet_ms = bed.sink2().latency_ms().mean();  // 1 packet per flow
  r.delivered = bed.sink2().packets_received();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);

  util::TableWriter table("multi-hop: 300 single-packet flows at 50 Mbps across a switch chain");
  table.set_columns({"hops", "mechanism", "pkt_ins", "ctrl KB", "first-packet ms",
                     "delivered"});
  for (const unsigned hops : {1u, 2u, 3u, 4u}) {
    for (const auto& mechanism :
         {bench::MechanismSpec{"no-buffer", sw::BufferMode::NoBuffer, 0},
          bench::MechanismSpec{"buffer-256", sw::BufferMode::PacketGranularity, 256},
          bench::MechanismSpec{"flow-granularity", sw::BufferMode::FlowGranularity, 256}}) {
      util::Summary pkt_ins;
      util::Summary control_kb;
      util::Summary latency;
      util::Summary delivered;
      for (int rep = 0; rep < options.repetitions; ++rep) {
        const auto r = run_chain(hops, mechanism.mode,
                                 options.seed * 53 + static_cast<std::uint64_t>(rep));
        pkt_ins.add(static_cast<double>(r.pkt_ins));
        control_kb.add(static_cast<double>(r.control_bytes) / 1000.0);
        latency.add(r.first_packet_ms);
        delivered.add(static_cast<double>(r.delivered));
      }
      table.add_row({std::to_string(hops), mechanism.label,
                     util::format_double(pkt_ins.mean(), 0),
                     util::format_double(control_kb.mean(), 1),
                     util::format_double(latency.mean(), 3),
                     util::format_double(delivered.mean(), 0)});
    }
  }
  table.print(std::cout);
  std::cout << "\nRequests and control bytes scale linearly with the path length for every\n"
               "mechanism — so the buffer's per-hop saving compounds: on a 4-hop path the\n"
               "no-buffer design ships 4x the full frames, the buffered designs 4x the\n"
               "headers. First-packet latency grows per hop with the per-switch setup\n"
               "delay, and fastest with buffering.\n";
  return 0;
}
