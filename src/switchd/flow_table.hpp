// The switch flow table.
//
// Supports what the testbed and the discussion section need:
//   - priority-ordered wildcard matching (linear scan, highest priority wins)
//   - an exact-match fast path (a hash index on the whole match) so the
//     reactive micro-flow rules the controller installs are O(1), mirroring
//     OVS's exact-match datapath cache
//   - idle and hard timeouts
//   - a capacity limit with a pluggable eviction policy (§VI.B: rules
//     "kicked out from the size limited flow table"; the related work —
//     LRU caching [13], flow-driven caching [17], adaptive caching [29] —
//     is all about this choice), reported with FlowRemovedReason::Eviction
//
// Entries live in one list in install order (a replaced entry keeps its
// place); that order is the output order of remove(), expire() and
// entries(). Three indexes make add, lookup, peek, strict remove and
// LRU/FIFO eviction O(1) or O(log n), with results identical to linear
// scans of that list:
//   - by_match_: every entry, keyed by its whole match, chained in
//     descending priority. It finds duplicate (match, priority) pairs and
//     strict-delete targets, and for exact matches (no wildcards) its chain
//     head is the exact fast path's answer.
//   - wildcard_entries_: entries with any wildcard, scanned in order; the
//     first of equal-priority matches wins, and an exact entry beats a
//     wildcard one of equal priority.
//   - victims_ (LRU/FIFO only): entries ordered by (last_used, seq) or
//     (installed_at, seq), where seq is the entry's list position. Its
//     first element is the first entry in list order with the least time,
//     exactly what a scan of the list would pick. Re-keying reuses the node.
// No index allocates before the first add.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"
#include "openflow/actions.hpp"
#include "openflow/constants.hpp"
#include "openflow/match.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sdnbuf::sw {

// Victim selection when the table is full.
enum class EvictionPolicy {
  Lru,     // least recently used (OVS-like default)
  Fifo,    // oldest installed
  Random,  // uniform random victim
};

[[nodiscard]] const char* eviction_policy_name(EvictionPolicy policy);

struct FlowEntry {
  of::Match match;
  std::uint16_t priority = 0;
  of::ActionList actions;
  std::uint64_t cookie = 0;
  std::uint16_t idle_timeout_s = 0;  // 0 = never
  std::uint16_t hard_timeout_s = 0;
  std::uint16_t flags = 0;  // kFlowModSendFlowRem etc.
  sim::SimTime installed_at;
  sim::SimTime last_used;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

struct RemovedEntry {
  FlowEntry entry;
  of::FlowRemovedReason reason = of::FlowRemovedReason::Delete;
};

class FlowTable {
 public:
  explicit FlowTable(std::size_t capacity, EvictionPolicy policy = EvictionPolicy::Lru,
                     std::uint64_t rng_seed = 1);
  // The indexes hold iterators into entries_ (end() included as the chain
  // terminator), which neither a copy nor a move would carry over.
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  // Highest-priority matching entry, or nullptr. Updates last_used and the
  // packet/byte counters of the hit entry.
  [[nodiscard]] FlowEntry* lookup(const net::Packet& p, std::uint16_t in_port, sim::SimTime now);

  // Read-only lookup (no counter updates).
  [[nodiscard]] const FlowEntry* peek(const net::Packet& p, std::uint16_t in_port) const;

  struct AddResult {
    bool replaced = false;            // an identical (match, priority) entry existed
    std::vector<RemovedEntry> evicted;  // victims of the eviction policy if the table was full
  };

  // Installs / overwrites an entry (flow_mod ADD semantics).
  AddResult add(FlowEntry entry, sim::SimTime now);

  // flow_mod DELETE (non-strict: removes every entry subsumed by `match`) /
  // DELETE_STRICT (exact match+priority). Returns removed entries in install
  // order.
  std::vector<RemovedEntry> remove(const of::Match& match, std::optional<std::uint16_t> priority,
                                   bool strict);

  // Removes entries whose idle or hard timeout has elapsed at `now`, in
  // install order.
  std::vector<RemovedEntry> expire(sim::SimTime now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  // Every entry in install order (a replaced entry keeps its place).
  [[nodiscard]] std::vector<const FlowEntry*> entries() const;

 private:
  struct Slot;
  using SlotList = std::list<Slot>;
  using SlotIt = SlotList::iterator;

  // victims_ order: (victim_at, seq), the first element being the victim.
  struct VictimOrder {
    bool operator()(SlotIt a, SlotIt b) const;
  };
  using VictimSet = std::set<SlotIt, VictimOrder>;

  struct Slot {
    FlowEntry entry;
    std::uint64_t seq = 0;  // list position, assigned at first insert
    SlotIt lower;           // next entry with the same match and a lower priority
    // LRU/FIFO only: the time victims_ orders this entry by (its install or
    // replacement time, refreshed by every hit under LRU) and its node there.
    sim::SimTime victim_at;
    VictimSet::iterator victim;
  };

  // by_match_ element: the highest-priority entry of one match. The head can
  // change, but never to an entry with another match, so the hash holds.
  // Keying on the head instead of a copy of the match halves the node size,
  // which a fabric of many full tables pays in peak memory.
  struct Chain {
    mutable SlotIt head;
  };
  // Hash and equality on the head's match, also callable with a bare Match.
  // Not noexcept, so the table caches each element's hash.
  struct ChainHash {
    using is_transparent = void;
    std::size_t operator()(const of::Match& m) const { return of::MatchHash{}(m); }
    std::size_t operator()(const Chain& c) const;
  };
  struct ChainEq {
    using is_transparent = void;
    bool operator()(const Chain& a, const Chain& b) const;
    bool operator()(const of::Match& m, const Chain& c) const;
    bool operator()(const Chain& c, const of::Match& m) const { return (*this)(m, c); }
  };

  [[nodiscard]] static bool is_exact(const of::Match& m) { return m.wildcards == 0; }

  // Highest-priority entry matching `p`, or nullptr (lookup and peek).
  [[nodiscard]] const Slot* best_match(const net::Packet& p, std::uint16_t in_port) const;
  // Moves `slot` to its place in victims_ for time `at`, reusing its node.
  void reorder_victim(Slot& slot, sim::SimTime at);
  // Adds a newly listed entry to the indexes / drops an entry from them.
  void link(SlotIt it);
  void unlink(SlotIt it);
  RemovedEntry take(SlotIt it, of::FlowRemovedReason reason);
  SlotIt find_victim();

  std::size_t capacity_;
  EvictionPolicy policy_;
  util::Rng rng_;
  SlotList entries_;
  std::uint64_t next_seq_ = 0;
  std::unordered_set<Chain, ChainHash, ChainEq> by_match_;
  std::vector<SlotIt> wildcard_entries_;  // scan order; a replaced entry moves to the back
  VictimSet victims_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sdnbuf::sw
