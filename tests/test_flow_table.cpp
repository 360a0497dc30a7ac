// Unit tests for the flow table: exact/wildcard lookup, priorities,
// counters, idle/hard timeouts, capacity eviction (LRU), delete semantics,
// a differential test against a linear-scan reference table, and a check
// that constructing a table allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <list>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "switchd/flow_table.hpp"
#include "util/rng.hpp"

// Test-local allocation counter: every global operator new of this binary
// lands here.
namespace {
std::atomic<std::size_t> g_allocations{0};
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

namespace sdnbuf::sw {
namespace {

net::Packet packet_for_flow(std::uint32_t flow) {
  return net::make_udp_packet(net::MacAddress::from_index(1), net::MacAddress::from_index(2),
                              net::Ipv4Address{0x0a010001u + flow},
                              net::Ipv4Address::from_octets(10, 2, 0, 1),
                              static_cast<std::uint16_t>(10000 + flow), 9, 1000);
}

FlowEntry exact_entry(std::uint32_t flow, std::uint16_t in_port = 1,
                      std::uint16_t priority = 100) {
  FlowEntry e;
  e.match = of::Match::exact_from(packet_for_flow(flow), in_port);
  e.priority = priority;
  e.actions = of::output_to(2);
  return e;
}

TEST(FlowTable, EmptyTableMisses) {
  FlowTable table{16};
  EXPECT_EQ(table.lookup(packet_for_flow(0), 1, sim::SimTime::zero()), nullptr);
  EXPECT_EQ(table.lookups(), 1u);
  EXPECT_EQ(table.hits(), 0u);
}

TEST(FlowTable, ExactMatchHit) {
  FlowTable table{16};
  table.add(exact_entry(0), sim::SimTime::zero());
  auto* e = table.lookup(packet_for_flow(0), 1, sim::SimTime::milliseconds(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packet_count, 1u);
  EXPECT_EQ(e->byte_count, 1000u);
  EXPECT_EQ(e->last_used, sim::SimTime::milliseconds(1));
  // Wrong in_port misses.
  EXPECT_EQ(table.lookup(packet_for_flow(0), 2, sim::SimTime::zero()), nullptr);
  // Other flow misses.
  EXPECT_EQ(table.lookup(packet_for_flow(1), 1, sim::SimTime::zero()), nullptr);
}

TEST(FlowTable, WildcardMatch) {
  FlowTable table{16};
  FlowEntry wild;
  wild.match = of::Match::wildcard_all();
  wild.priority = 1;
  wild.actions = of::drop();
  table.add(wild, sim::SimTime::zero());
  EXPECT_NE(table.lookup(packet_for_flow(42), 3, sim::SimTime::zero()), nullptr);
}

TEST(FlowTable, HigherPriorityWildcardBeatsExact) {
  FlowTable table{16};
  table.add(exact_entry(0, 1, 10), sim::SimTime::zero());
  FlowEntry wild;
  wild.match = of::Match::wildcard_all();
  wild.priority = 200;
  wild.actions = of::drop();
  table.add(wild, sim::SimTime::zero());
  auto* e = table.lookup(packet_for_flow(0), 1, sim::SimTime::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->priority, 200);
  EXPECT_TRUE(e->actions.empty());
}

TEST(FlowTable, ExactBeatsLowerPriorityWildcard) {
  FlowTable table{16};
  table.add(exact_entry(0, 1, 100), sim::SimTime::zero());
  FlowEntry wild;
  wild.match = of::Match::wildcard_all();
  wild.priority = 1;
  table.add(wild, sim::SimTime::zero());
  auto* e = table.lookup(packet_for_flow(0), 1, sim::SimTime::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->priority, 100);
}

TEST(FlowTable, AddOverwritesSameMatchAndPriority) {
  FlowTable table{16};
  table.add(exact_entry(0), sim::SimTime::zero());
  FlowEntry replacement = exact_entry(0);
  replacement.actions = of::output_to(7);
  const auto result = table.add(replacement, sim::SimTime::zero());
  EXPECT_TRUE(result.replaced);
  EXPECT_EQ(table.size(), 1u);
  auto* e = table.lookup(packet_for_flow(0), 1, sim::SimTime::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(std::get<of::OutputAction>(e->actions[0]).port, 7);
}

TEST(FlowTable, PeekDoesNotUpdateCounters) {
  FlowTable table{16};
  table.add(exact_entry(0), sim::SimTime::zero());
  const auto* e = table.peek(packet_for_flow(0), 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packet_count, 0u);
}

TEST(FlowTable, IdleTimeoutExpires) {
  FlowTable table{16};
  FlowEntry e = exact_entry(0);
  e.idle_timeout_s = 5;
  table.add(e, sim::SimTime::zero());
  // Used at t=2s: still alive at t=6s (idle 4s), gone at t=8s (idle 6s).
  (void)table.lookup(packet_for_flow(0), 1, sim::SimTime::seconds(2));
  EXPECT_TRUE(table.expire(sim::SimTime::seconds(6)).empty());
  const auto removed = table.expire(sim::SimTime::seconds(8));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].reason, of::FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, HardTimeoutExpiresEvenIfUsed) {
  FlowTable table{16};
  FlowEntry e = exact_entry(0);
  e.hard_timeout_s = 3;
  table.add(e, sim::SimTime::zero());
  (void)table.lookup(packet_for_flow(0), 1, sim::SimTime::seconds(2));  // recent use doesn't matter
  const auto removed = table.expire(sim::SimTime::seconds(3));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].reason, of::FlowRemovedReason::HardTimeout);
}

TEST(FlowTable, ZeroTimeoutsNeverExpire) {
  FlowTable table{16};
  table.add(exact_entry(0), sim::SimTime::zero());
  EXPECT_TRUE(table.expire(sim::SimTime::seconds(3600)).empty());
}

TEST(FlowTable, CapacityEvictsLru) {
  FlowTable table{3};
  for (std::uint32_t f = 0; f < 3; ++f) {
    FlowEntry e = exact_entry(f);
    table.add(e, sim::SimTime::milliseconds(f));
  }
  // Touch flows 0 and 2 so flow 1 is the LRU.
  (void)table.lookup(packet_for_flow(0), 1, sim::SimTime::seconds(1));
  (void)table.lookup(packet_for_flow(2), 1, sim::SimTime::seconds(2));
  const auto result = table.add(exact_entry(9), sim::SimTime::seconds(3));
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].reason, of::FlowRemovedReason::Eviction);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.evictions(), 1u);
  // Flow 1 is gone; the others remain.
  EXPECT_EQ(table.lookup(packet_for_flow(1), 1, sim::SimTime::seconds(4)), nullptr);
  EXPECT_NE(table.lookup(packet_for_flow(0), 1, sim::SimTime::seconds(4)), nullptr);
  EXPECT_NE(table.lookup(packet_for_flow(9), 1, sim::SimTime::seconds(4)), nullptr);
}

TEST(FlowTable, StrictDeleteRemovesExactEntry) {
  FlowTable table{16};
  table.add(exact_entry(0, 1, 100), sim::SimTime::zero());
  table.add(exact_entry(1, 1, 100), sim::SimTime::zero());
  // Strict delete with wrong priority removes nothing.
  auto removed = table.remove(of::Match::exact_from(packet_for_flow(0), 1), 50, true);
  EXPECT_TRUE(removed.empty());
  removed = table.remove(of::Match::exact_from(packet_for_flow(0), 1), 100, true);
  EXPECT_EQ(removed.size(), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, NonStrictDeleteUsesSubsumption) {
  FlowTable table{16};
  for (std::uint32_t f = 0; f < 4; ++f) table.add(exact_entry(f), sim::SimTime::zero());
  // A wildcard-all match deletes everything.
  const auto removed = table.remove(of::Match::wildcard_all(), std::nullopt, false);
  EXPECT_EQ(removed.size(), 4u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, NonStrictDeleteRemovesOnlySubsumedEntries) {
  FlowTable table{16};
  // Four flows toward 10.2.0.1 plus one toward a different destination.
  for (std::uint32_t f = 0; f < 4; ++f) table.add(exact_entry(f), sim::SimTime::zero());
  FlowEntry other = exact_entry(0);
  other.match.nw_dst = net::Ipv4Address::from_octets(10, 3, 0, 1);
  table.add(other, sim::SimTime::zero());

  // Delete everything toward 10.2.0.1: wildcard all fields except dl_type
  // and an exact nw_dst. The entry toward 10.3.0.1 is not subsumed.
  of::Match by_dst = of::Match::wildcard_all();
  by_dst.wildcards &= ~of::kWildcardDlType;
  by_dst.dl_type = 0x0800;
  by_dst.set_nw_dst_ignored_bits(0);
  by_dst.nw_dst = net::Ipv4Address::from_octets(10, 2, 0, 1);
  const auto removed = table.remove(by_dst, std::nullopt, false);
  EXPECT_EQ(removed.size(), 4u);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.entries()[0]->match.nw_dst, net::Ipv4Address::from_octets(10, 3, 0, 1));
}

TEST(FlowTable, NonStrictDeleteHonoursCidrPrefixes) {
  FlowTable table{16};
  // Sources 10.1.0.1 .. 10.1.0.4 plus one in a different /24 (10.1.1.45).
  for (std::uint32_t f = 0; f < 4; ++f) table.add(exact_entry(f), sim::SimTime::zero());
  table.add(exact_entry(300), sim::SimTime::zero());

  of::Match by_src_net = of::Match::wildcard_all();
  by_src_net.wildcards &= ~of::kWildcardDlType;
  by_src_net.dl_type = 0x0800;
  by_src_net.set_nw_src_ignored_bits(8);  // 10.1.0.0/24
  by_src_net.nw_src = net::Ipv4Address::from_octets(10, 1, 0, 0);
  const auto removed = table.remove(by_src_net, std::nullopt, false);
  EXPECT_EQ(removed.size(), 4u);
  EXPECT_EQ(table.size(), 1u);  // 10.1.1.45 survives
}

TEST(FlowTable, NonStrictDeleteIgnoresPriorityAndSparesBroaderEntries) {
  FlowTable table{16};
  table.add(exact_entry(0, 1, 10), sim::SimTime::zero());
  table.add(exact_entry(1, 1, 200), sim::SimTime::zero());
  FlowEntry broad;
  broad.match = of::Match::wildcard_all();
  broad.priority = 1;
  table.add(broad, sim::SimTime::zero());

  // An exact delete match subsumes only the identical exact entry — never
  // the wildcard-all entry, which matches strictly more packets — and
  // non-strict delete pays no attention to priorities.
  auto removed = table.remove(of::Match::exact_from(packet_for_flow(0), 1), std::nullopt, false);
  EXPECT_EQ(removed.size(), 1u);
  removed = table.remove(of::Match::exact_from(packet_for_flow(1), 1), std::nullopt, false);
  EXPECT_EQ(removed.size(), 1u);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.entries()[0]->match, of::Match::wildcard_all());
}

TEST(FlowTable, ManyExactEntriesFastPath) {
  FlowTable table{5000};
  for (std::uint32_t f = 0; f < 2000; ++f) table.add(exact_entry(f), sim::SimTime::zero());
  EXPECT_EQ(table.size(), 2000u);
  for (std::uint32_t f = 0; f < 2000; ++f) {
    ASSERT_NE(table.lookup(packet_for_flow(f), 1, sim::SimTime::zero()), nullptr) << f;
  }
  EXPECT_EQ(table.hits(), 2000u);
}

TEST(FlowTable, FifoEvictsOldestInstalled) {
  FlowTable table{2, EvictionPolicy::Fifo};
  table.add(exact_entry(0), sim::SimTime::milliseconds(1));
  table.add(exact_entry(1), sim::SimTime::milliseconds(2));
  // Touch flow 0 so LRU would evict flow 1 — FIFO must still evict flow 0
  // (oldest installed).
  (void)table.lookup(packet_for_flow(0), 1, sim::SimTime::seconds(1));
  table.add(exact_entry(2), sim::SimTime::seconds(2));
  EXPECT_EQ(table.lookup(packet_for_flow(0), 1, sim::SimTime::seconds(3)), nullptr);
  EXPECT_NE(table.lookup(packet_for_flow(1), 1, sim::SimTime::seconds(3)), nullptr);
}

TEST(FlowTable, RandomEvictionIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    FlowTable table{4, EvictionPolicy::Random, seed};
    std::vector<std::uint64_t> victims;
    for (std::uint32_t f = 0; f < 20; ++f) {
      FlowEntry e = exact_entry(f);
      e.cookie = f;
      for (const auto& removed : table.add(e, sim::SimTime::milliseconds(f)).evicted) {
        victims.push_back(removed.entry.cookie);
      }
    }
    return victims;
  };
  EXPECT_EQ(run(7), run(7));   // reproducible
  EXPECT_NE(run(7), run(8));   // seed-dependent

  // The same holds across a seed sweep: every seed replays exactly, and the
  // victim sequences genuinely vary between seeds.
  std::set<std::vector<std::uint64_t>> distinct;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto victims = run(seed);
    EXPECT_EQ(victims, run(seed)) << "seed " << seed;
    distinct.insert(victims);
  }
  EXPECT_GT(distinct.size(), 8u);
}

TEST(FlowTable, RandomEvictionCoversTheTable) {
  // Over many evictions a uniform victim picker must hit many distinct
  // positions, unlike FIFO/LRU which always pick the extremum.
  FlowTable table{8, EvictionPolicy::Random, 99};
  std::set<std::uint64_t> victims;
  for (std::uint32_t f = 0; f < 108; ++f) {
    FlowEntry e = exact_entry(f);
    e.cookie = f;
    for (const auto& removed : table.add(e, sim::SimTime::milliseconds(f)).evicted) {
      victims.insert(removed.entry.cookie);
    }
  }
  EXPECT_EQ(table.size(), 8u);
  EXPECT_GT(victims.size(), 50u);  // 100 evictions over a churning table
}

// Parameterized: eviction keeps the table within capacity for a range of
// capacities and insert counts.
class FlowTableCapacityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlowTableCapacityTest, NeverExceedsCapacity) {
  const std::size_t capacity = GetParam();
  FlowTable table{capacity};
  std::size_t evicted_total = 0;
  for (std::uint32_t f = 0; f < 100; ++f) {
    const auto result = table.add(exact_entry(f), sim::SimTime::milliseconds(f));
    evicted_total += result.evicted.size();
    EXPECT_LE(table.size(), capacity);
  }
  EXPECT_EQ(table.size(), std::min<std::size_t>(capacity, 100));
  EXPECT_EQ(evicted_total, 100 - std::min<std::size_t>(capacity, 100));
}

INSTANTIATE_TEST_SUITE_P(Capacities, FlowTableCapacityTest,
                         ::testing::Values(1, 2, 10, 64, 99, 100, 1000));

TEST(FlowTable, ExactSameMatchTwoPriorities) {
  // Two exact entries with one match: the higher priority answers, and
  // deleting the lower one leaves the higher one reachable.
  FlowTable table{16};
  table.add(exact_entry(0, 1, 10), sim::SimTime::zero());
  table.add(exact_entry(0, 1, 20), sim::SimTime::zero());
  const FlowEntry* e = table.lookup(packet_for_flow(0), 1, sim::SimTime::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->priority, 20);
  const auto removed = table.remove(of::Match::exact_from(packet_for_flow(0), 1), 10, true);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].entry.priority, 10);
  e = table.lookup(packet_for_flow(0), 1, sim::SimTime::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->priority, 20);
}

TEST(FlowTable, ConstructionAllocatesNothing) {
  // A fabric builds one table per switch; indexes must grow on first insert,
  // not be pre-sized to the capacity.
  const std::size_t before = g_allocations.load();
  {
    FlowTable lru{4096};
    FlowTable fifo{4096, EvictionPolicy::Fifo};
    FlowTable random{4096, EvictionPolicy::Random};
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

// The linear-scan flow table the indexed one replaced (LRU/FIFO only): every
// operation walks the install-ordered list. Its one deviation from that
// table is the exact-match answer, the highest-priority exact entry.
class ReferenceFlowTable {
 public:
  ReferenceFlowTable(std::size_t capacity, EvictionPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  FlowEntry* lookup(const net::Packet& p, std::uint16_t in_port, sim::SimTime now) {
    FlowEntry* best = const_cast<FlowEntry*>(peek(p, in_port));
    if (best != nullptr) {
      best->last_used = now;
      ++best->packet_count;
      best->byte_count += p.frame_size;
    }
    return best;
  }

  const FlowEntry* peek(const net::Packet& p, std::uint16_t in_port) const {
    const FlowEntry* best = nullptr;
    const auto exact = of::Match::exact_from(p, in_port);
    if (exact.wildcards == 0) {
      for (const FlowEntry& e : entries_) {
        if (e.match == exact && (best == nullptr || e.priority > best->priority)) best = &e;
      }
    }
    for (const auto& it : wildcard_entries_) {
      if (best && it->priority <= best->priority) continue;
      if (it->match.matches(p, in_port)) best = &*it;
    }
    return best;
  }

  FlowTable::AddResult add(FlowEntry entry, sim::SimTime now) {
    FlowTable::AddResult result;
    entry.installed_at = now;
    entry.last_used = now;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->match == entry.match && it->priority == entry.priority) {
        unlink(it);
        *it = std::move(entry);
        if (it->match.wildcards != 0) wildcard_entries_.push_back(it);
        result.replaced = true;
        return result;
      }
    }
    while (entries_.size() >= capacity_) {
      auto victim = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        const bool older = policy_ == EvictionPolicy::Lru ? it->last_used < victim->last_used
                                                          : it->installed_at < victim->installed_at;
        if (older) victim = it;
      }
      result.evicted.push_back(take(victim, of::FlowRemovedReason::Eviction));
    }
    entries_.push_back(std::move(entry));
    if (entries_.back().match.wildcards != 0) wildcard_entries_.push_back(std::prev(entries_.end()));
    return result;
  }

  std::vector<RemovedEntry> remove(const of::Match& match, std::optional<std::uint16_t> priority,
                                   bool strict) {
    std::vector<RemovedEntry> removed;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const bool hit = strict ? (it->match == match && (!priority || it->priority == *priority))
                              : match.subsumes(it->match);
      auto here = it++;
      if (hit) removed.push_back(take(here, of::FlowRemovedReason::Delete));
    }
    return removed;
  }

  std::vector<RemovedEntry> expire(sim::SimTime now) {
    std::vector<RemovedEntry> removed;
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto here = it++;
      if (here->hard_timeout_s != 0 &&
          now - here->installed_at >= sim::SimTime::seconds(here->hard_timeout_s)) {
        removed.push_back(take(here, of::FlowRemovedReason::HardTimeout));
      } else if (here->idle_timeout_s != 0 &&
                 now - here->last_used >= sim::SimTime::seconds(here->idle_timeout_s)) {
        removed.push_back(take(here, of::FlowRemovedReason::IdleTimeout));
      }
    }
    return removed;
  }

  std::vector<const FlowEntry*> entries() const {
    std::vector<const FlowEntry*> out;
    for (const FlowEntry& e : entries_) out.push_back(&e);
    return out;
  }

 private:
  using EntryIt = std::list<FlowEntry>::iterator;

  void unlink(EntryIt it) {
    if (it->match.wildcards != 0) {
      wildcard_entries_.erase(std::find(wildcard_entries_.begin(), wildcard_entries_.end(), it));
    }
  }
  RemovedEntry take(EntryIt it, of::FlowRemovedReason reason) {
    unlink(it);
    RemovedEntry removed{std::move(*it), reason};
    entries_.erase(it);
    return removed;
  }

  std::size_t capacity_;
  EvictionPolicy policy_;
  std::list<FlowEntry> entries_;
  std::vector<EntryIt> wildcard_entries_;
};

std::string describe(const FlowEntry* e) {
  if (e == nullptr) return "miss";
  std::ostringstream os;
  os << e->match.to_string() << " w=" << e->match.wildcards << " prio=" << e->priority
     << " cookie=" << e->cookie << " pkts=" << e->packet_count << " bytes=" << e->byte_count
     << " installed=" << e->installed_at.ns() << " used=" << e->last_used.ns();
  return os.str();
}

std::vector<std::string> describe(const std::vector<RemovedEntry>& removed) {
  std::vector<std::string> out;
  for (const RemovedEntry& r : removed) {
    out.push_back(describe(&r.entry) + " reason=" + std::to_string(static_cast<int>(r.reason)));
  }
  return out;
}

std::vector<std::string> describe(const std::vector<const FlowEntry*>& entries) {
  std::vector<std::string> out;
  for (const FlowEntry* e : entries) out.push_back(describe(e));
  return out;
}

// A small pool of matches so (match, priority) pairs repeat: exact matches
// for a few flows on two in_ports, plus wildcard matches that overlap them.
std::vector<of::Match> match_pool(std::uint32_t flows) {
  std::vector<of::Match> pool;
  for (std::uint32_t f = 0; f < flows; ++f) {
    for (std::uint16_t port = 1; port <= 2; ++port) {
      pool.push_back(of::Match::exact_from(packet_for_flow(f), port));
    }
  }
  pool.push_back(of::Match::wildcard_all());
  of::Match by_dst = of::Match::wildcard_all();
  by_dst.wildcards &= ~of::kWildcardDlType;
  by_dst.dl_type = 0x0800;
  by_dst.set_nw_dst_ignored_bits(0);
  by_dst.nw_dst = net::Ipv4Address::from_octets(10, 2, 0, 1);
  pool.push_back(by_dst);
  of::Match by_src_net = by_dst;
  by_src_net.set_nw_dst_ignored_bits(32);
  by_src_net.set_nw_src_ignored_bits(2);
  by_src_net.nw_src = net::Ipv4Address::from_octets(10, 1, 0, 0);
  pool.push_back(by_src_net);
  of::Match by_port = of::Match::wildcard_all();
  by_port.wildcards &= ~of::kWildcardInPort;
  by_port.in_port = 2;
  pool.push_back(by_port);
  return pool;
}

void run_differential(std::size_t capacity, EvictionPolicy policy, std::uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + " policy " +
               eviction_policy_name(policy) + " seed " + std::to_string(seed));
  util::Rng rng{seed};
  const std::uint32_t flows = 2 + static_cast<std::uint32_t>(capacity / 2);
  const std::vector<of::Match> pool = match_pool(flows);
  const std::uint16_t priorities[] = {10, 20, 30};
  FlowTable table{capacity, policy};
  ReferenceFlowTable reference{capacity, policy};
  sim::SimTime now = sim::SimTime::zero();

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Mostly equal times, so eviction ties are frequent.
    if (rng.next_below(4) == 0) now = now + sim::SimTime::milliseconds(500);
    const of::Match& match = pool[rng.next_below(pool.size())];
    const std::uint16_t priority = priorities[rng.next_below(3)];
    const net::Packet packet = packet_for_flow(static_cast<std::uint32_t>(rng.next_below(flows)));
    const auto in_port = static_cast<std::uint16_t>(1 + rng.next_below(2));

    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2: {
        FlowEntry e;
        e.match = match;
        e.priority = priority;
        e.cookie = static_cast<std::uint64_t>(step);
        e.idle_timeout_s = static_cast<std::uint16_t>(rng.next_below(3));
        e.hard_timeout_s = static_cast<std::uint16_t>(rng.next_below(4));
        const auto got = table.add(e, now);
        const auto want = reference.add(e, now);
        ASSERT_EQ(got.replaced, want.replaced);
        ASSERT_EQ(describe(got.evicted), describe(want.evicted));
        break;
      }
      case 3:
      case 4:
        ASSERT_EQ(describe(table.lookup(packet, in_port, now)),
                  describe(reference.lookup(packet, in_port, now)));
        break;
      case 5:
        ASSERT_EQ(describe(table.peek(packet, in_port)), describe(reference.peek(packet, in_port)));
        break;
      case 6: {
        const bool strict = rng.next_below(3) != 0;
        std::optional<std::uint16_t> prio;
        if (rng.next_below(2) == 0) prio = priority;
        ASSERT_EQ(describe(table.remove(match, prio, strict)),
                  describe(reference.remove(match, prio, strict)));
        break;
      }
      default:
        ASSERT_EQ(describe(table.expire(now)), describe(reference.expire(now)));
        break;
    }
    ASSERT_EQ(describe(table.entries()), describe(reference.entries()));
  }
}

TEST(FlowTable, MatchesLinearReference) {
  for (const EvictionPolicy policy : {EvictionPolicy::Lru, EvictionPolicy::Fifo}) {
    for (const std::size_t capacity : {1, 2, 3, 4, 7, 16, 33, 64}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) run_differential(capacity, policy, seed);
    }
  }
}

}  // namespace
}  // namespace sdnbuf::sw
