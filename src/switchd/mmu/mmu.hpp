// Shared-memory MMU: one per-switch memory pool arbitrated across every
// consumer of buffer space (DESIGN.md §16).
//
// Today's switch has two kinds of buffer memory, each with its own flat cap:
// the OpenFlow buffer (buffer_capacity unit slots, PacketBuffer/FlowBuffer)
// and the per-port egress class queues (queue_limit_bytes tail drop). A real
// ASIC backs both with the same SRAM, carved into fixed-size cells and
// shared under an admission policy. This class models that: every queue
// registers once, every enqueue asks `try_admit`, every dequeue / drop /
// expiry calls `release`, and a pluggable `SharingPolicy` decides who may
// grab how much of the pool.
//
// Accounting runs in two currencies per queue:
//  - native units mirror the legacy caps exactly (buffer_id slots for the
//    OpenFlow buffer, backlog bytes for egress queues) — this is what lets
//    StaticPartition reproduce the pre-MMU admission decisions bit-for-bit;
//  - cells (ceil(bytes / cell_bytes)) are the pool currency the dynamic
//    policies arbitrate: reserved minima per queue, one shared region, and
//    optional headroom the policies never admit into.
//
// Determinism: no RNG, no clock reads in the admission path; decisions are
// pure functions of occupancy. The simulator reference exists only so the
// conservation hooks can timestamp observer events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "switchd/mmu/policy.hpp"
#include "verify/observer.hpp"

namespace sdnbuf::sw::mmu {

struct MmuConfig {
  // Off by default: a disabled MMU is never constructed and every consumer
  // keeps its legacy flat cap — byte-identical to the pre-MMU build.
  bool enabled = false;
  PolicyKind policy = PolicyKind::StaticPartition;
  // Pool geometry. 256-byte cells are the common ASIC granularity; 8192
  // cells = 2 MiB of packet memory, in the range of a ToR's per-chip SRAM
  // scaled to this testbed's link speeds.
  std::uint64_t pool_cells = 8192;
  std::uint32_t cell_bytes = 256;
  // Slack the dynamic policies never admit into (PFC-style headroom).
  std::uint64_t headroom_cells = 0;
  // Per-queue reserved minimum (cells); occupancy below it always admits
  // under the dynamic policies.
  std::uint64_t reserved_cells = 0;
  // DT α per queue kind: egress class queues vs the OpenFlow buffer queue —
  // the knob that biases the pool toward data-plane backlog or toward
  // miss-path buffering.
  double alpha = 1.0;
  double buffer_alpha = 1.0;
  // Delay-driven steering (PolicyKind::DelayDriven only).
  double delay_target_ms = 1.0;
  // EWMA weight of each new delay sample in [0,1].
  double delay_ewma_weight = 0.2;
  double alpha_min = 0.02;
};

enum class QueueKind {
  OfBuffer,  // OpenFlow buffered units (PacketBufferManager / FlowBufferManager)
  Egress,    // one per (port, service class) egress queue
};

[[nodiscard]] const char* queue_kind_name(QueueKind kind);

class SharedMemoryMmu {
 public:
  using QueueHandle = std::uint32_t;
  static constexpr QueueHandle kNoQueue = 0xffffffffu;

  SharedMemoryMmu(sim::Simulator& sim, const MmuConfig& config, std::string name);

  SharedMemoryMmu(const SharedMemoryMmu&) = delete;
  SharedMemoryMmu& operator=(const SharedMemoryMmu&) = delete;

  // Registers one accounted queue. `native_cap` is the legacy flat cap in
  // the queue's native currency (unit slots or bytes); StaticPartition
  // enforces it, the dynamic policies replace it with the shared threshold.
  [[nodiscard]] QueueHandle register_queue(QueueKind kind, std::uint16_t port,
                                           unsigned service_class, std::uint64_t native_cap);

  // Admission: charge `native` legacy units and ceil(bytes/cell) pool cells,
  // or reject (false) leaving all accounting untouched. Either charge may be
  // zero — a subsequent packet of a buffered flow charges no native unit, a
  // deferred unit reclaim releases no bytes.
  [[nodiscard]] bool try_admit(QueueHandle q, std::uint64_t native, std::uint64_t bytes);

  // Releases a previous admission, in parts: the packet's cells come back
  // when it leaves the queue (dequeue / drop / expiry), the native unit when
  // its slot is reclaimed (which the buffer managers defer).
  void release(QueueHandle q, std::uint64_t native, std::uint64_t bytes);

  // Queueing-delay feedback from the egress scheduler at dequeue; folded
  // into the queue's EWMA for the delay-driven policy (cheap and harmless
  // under the other policies).
  void record_queue_delay(QueueHandle q, sim::SimTime delay);

  // Conservation hook (may be null). Fires on_mmu_admit / on_mmu_release
  // with post-transition occupancies so a ledger can cross-check them.
  void set_observer(verify::InvariantObserver* observer) { observer_ = observer; }

  // Statistics reset between experiment repetitions: zeroes the admit/reject
  // totals and re-bases the pool peak at the current occupancy. Pure counter
  // writes — never perturbs admission decisions or the event stream.
  void reset_counters();

  [[nodiscard]] std::uint64_t cells_for(std::uint64_t bytes) const {
    return (bytes + config_.cell_bytes - 1) / config_.cell_bytes;
  }

  [[nodiscard]] const MmuConfig& config() const { return config_; }

  [[nodiscard]] std::uint64_t pool_cells_used() const { return pool_.used_cells; }
  [[nodiscard]] std::uint64_t peak_pool_cells() const { return peak_pool_cells_; }
  [[nodiscard]] std::uint64_t queue_cells(QueueHandle q) const;
  [[nodiscard]] std::uint64_t queue_native(QueueHandle q) const;
  // The queue's current admission ceiling under the active policy (cells for
  // the dynamic policies, the native cap for StaticPartition).
  [[nodiscard]] std::uint64_t threshold(QueueHandle q) const;

  [[nodiscard]] std::uint64_t total_admitted() const { return total_admitted_; }
  [[nodiscard]] std::uint64_t total_rejected() const { return total_rejected_; }
  [[nodiscard]] std::uint64_t rejected(QueueHandle q) const;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Queue {
    QueueKind kind = QueueKind::Egress;
    std::uint16_t port = 0;
    unsigned service_class = 0;
    QueueState state;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
  };

  // Keeps pool_.shared_used_cells in sync across a queue's cell transition.
  void apply_cells(Queue& queue, std::uint64_t cells, bool add);

  sim::Simulator& sim_;
  MmuConfig config_;
  std::string name_;
  std::unique_ptr<SharingPolicy> policy_;
  verify::InvariantObserver* observer_ = nullptr;
  std::vector<Queue> queues_;
  PoolState pool_;
  std::uint64_t peak_pool_cells_ = 0;
  std::uint64_t total_admitted_ = 0;
  std::uint64_t total_rejected_ = 0;
};

}  // namespace sdnbuf::sw::mmu
