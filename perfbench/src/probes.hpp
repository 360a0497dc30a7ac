// Layer probes: timed calls into one module's public functions on inputs
// shaped like a workload. Each probe repeats its operation in batches and
// reports the median batch's cost per operation.
#pragma once

#include <cstddef>

namespace perfbench {

struct FlowTableCost {
  double add_us = 0.0;          // one add into a table at `occupancy`
  double lookup_hit_us = 0.0;   // one lookup of an installed flow
  double lookup_miss_us = 0.0;  // one lookup of an unknown flow
};

// sw::FlowTable (4096 entries, LRU) prefilled to `occupancy`; at capacity
// every timed add evicts.
[[nodiscard]] FlowTableCost probe_flow_table(std::size_t occupancy);

// of::encode_message_into on a packet_in carrying `data_bytes` of frame.
[[nodiscard]] double probe_encode_pktin_us(std::size_t data_bytes);

// of::decode_message on an exact-match flow_mod with one output action.
[[nodiscard]] double probe_decode_flowmod_us();

// sw::PacketBufferManager: one store plus its release.
[[nodiscard]] double probe_buffer_store_release_us();

// sw::FlowBufferManager: a 20-packet flow buffered, then released at once.
[[nodiscard]] double probe_flowbuf_burst_release_us();

// sw::mmu::SharedMemoryMmu (dynamic threshold): one try_admit plus release.
[[nodiscard]] double probe_mmu_admit_release_ns();

// sim::Simulator: one schedule plus its dispatch by run().
[[nodiscard]] double probe_scheduler_ns();

// topo::Router::path on a fat-tree k=8.
[[nodiscard]] double probe_route_path_us();

}  // namespace perfbench
