#include "switchd/flow_table.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sdnbuf::sw {

const char* eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::Lru: return "lru";
    case EvictionPolicy::Fifo: return "fifo";
    case EvictionPolicy::Random: return "random";
  }
  return "?";
}

FlowTable::FlowTable(std::size_t capacity, EvictionPolicy policy, std::uint64_t rng_seed)
    : capacity_(capacity), policy_(policy), rng_(rng_seed) {
  SDNBUF_CHECK_MSG(capacity_ >= 1, "flow table needs capacity");
}

bool FlowTable::VictimOrder::operator()(SlotIt a, SlotIt b) const {
  return a->victim_at != b->victim_at ? a->victim_at < b->victim_at : a->seq < b->seq;
}

std::size_t FlowTable::ChainHash::operator()(const Chain& c) const {
  return of::MatchHash{}(c.head->entry.match);
}

bool FlowTable::ChainEq::operator()(const Chain& a, const Chain& b) const {
  return a.head->entry.match == b.head->entry.match;
}

bool FlowTable::ChainEq::operator()(const of::Match& m, const Chain& c) const {
  return m == c.head->entry.match;
}

const FlowTable::Slot* FlowTable::best_match(const net::Packet& p, std::uint16_t in_port) const {
  const Slot* best = nullptr;

  // Exact-match fast path: the key is the packet's own exact match, and the
  // head of its chain is the highest-priority entry with that match.
  const auto exact = of::Match::exact_from(p, in_port);
  if (is_exact(exact)) {
    if (const auto it = by_match_.find(exact); it != by_match_.end()) best = &*it->head;
  }

  // Wildcard entries can still win on priority.
  for (const SlotIt& it : wildcard_entries_) {
    const Slot& s = *it;
    if (best && s.entry.priority <= best->entry.priority) continue;
    if (s.entry.match.matches(p, in_port)) best = &s;
  }
  return best;
}

FlowEntry* FlowTable::lookup(const net::Packet& p, std::uint16_t in_port, sim::SimTime now) {
  ++lookups_;
  // The slot belongs to this (non-const) table, so dropping const is sound.
  auto* best = const_cast<Slot*>(best_match(p, in_port));
  if (best == nullptr) return nullptr;
  ++hits_;
  FlowEntry& e = best->entry;
  e.last_used = now;
  ++e.packet_count;
  e.byte_count += p.frame_size;
  if (policy_ == EvictionPolicy::Lru) reorder_victim(*best, now);
  return &e;
}

const FlowEntry* FlowTable::peek(const net::Packet& p, std::uint16_t in_port) const {
  const Slot* best = best_match(p, in_port);
  return best != nullptr ? &best->entry : nullptr;
}

void FlowTable::reorder_victim(Slot& slot, sim::SimTime at) {
  auto node = victims_.extract(slot.victim);
  slot.victim_at = at;
  // Times rarely go backwards, so the new key usually belongs at the end.
  slot.victim = victims_.insert(victims_.end(), std::move(node));
}

void FlowTable::link(SlotIt it) {
  Slot& s = *it;
  s.lower = entries_.end();
  if (const auto [pos, fresh] = by_match_.insert(Chain{it}); !fresh) {
    // Splice into the match's chain so priorities stay descending.
    SlotIt* next = &pos->head;
    while (*next != entries_.end() && (*next)->entry.priority > s.entry.priority) {
      next = &(*next)->lower;
    }
    s.lower = *next;
    *next = it;
  }
  if (!is_exact(s.entry.match)) wildcard_entries_.push_back(it);
  if (policy_ != EvictionPolicy::Random) {
    s.victim_at = s.entry.installed_at;  // also its last_used, as it is new
    s.victim = victims_.insert(victims_.end(), it);
  }
}

void FlowTable::unlink(SlotIt it) {
  const auto pos = by_match_.find(it->entry.match);
  SDNBUF_CHECK(pos != by_match_.end());
  SlotIt* next = &pos->head;
  while (*next != it) {
    SDNBUF_CHECK(*next != entries_.end());
    next = &(*next)->lower;
  }
  if (next == &pos->head && it->lower == entries_.end()) {
    by_match_.erase(pos);  // it was the match's only entry
  } else {
    *next = it->lower;
  }

  if (!is_exact(it->entry.match)) {
    const auto w = std::find(wildcard_entries_.begin(), wildcard_entries_.end(), it);
    SDNBUF_CHECK(w != wildcard_entries_.end());
    wildcard_entries_.erase(w);
  }
  if (policy_ != EvictionPolicy::Random) victims_.erase(it->victim);
}

RemovedEntry FlowTable::take(SlotIt it, of::FlowRemovedReason reason) {
  unlink(it);
  RemovedEntry removed{std::move(it->entry), reason};
  entries_.erase(it);
  return removed;
}

FlowTable::SlotIt FlowTable::find_victim() {
  SDNBUF_CHECK(!entries_.empty());
  if (policy_ == EvictionPolicy::Random) {
    auto victim = entries_.begin();
    std::advance(victim, static_cast<std::ptrdiff_t>(rng_.next_below(entries_.size())));
    return victim;
  }
  return *victims_.begin();
}

FlowTable::AddResult FlowTable::add(FlowEntry entry, sim::SimTime now) {
  AddResult result;
  entry.installed_at = now;
  entry.last_used = now;

  // ADD overwrites an identical (match, priority) entry in place.
  if (const auto pos = by_match_.find(entry.match); pos != by_match_.end()) {
    for (SlotIt it = pos->head; it != entries_.end(); it = it->lower) {
      if (it->entry.priority != entry.priority) continue;
      it->entry = std::move(entry);
      if (!is_exact(it->entry.match)) {
        const auto w = std::find(wildcard_entries_.begin(), wildcard_entries_.end(), it);
        SDNBUF_CHECK(w != wildcard_entries_.end());
        wildcard_entries_.erase(w);
        wildcard_entries_.push_back(it);
      }
      if (policy_ != EvictionPolicy::Random) reorder_victim(*it, now);
      result.replaced = true;
      return result;
    }
  }

  while (entries_.size() >= capacity_) {
    ++evictions_;
    result.evicted.push_back(take(find_victim(), of::FlowRemovedReason::Eviction));
  }

  entries_.push_back(Slot{std::move(entry), next_seq_++, {}, {}, {}});
  link(std::prev(entries_.end()));
  return result;
}

std::vector<RemovedEntry> FlowTable::remove(const of::Match& match,
                                            std::optional<std::uint16_t> priority, bool strict) {
  std::vector<RemovedEntry> removed;
  if (strict) {
    const auto pos = by_match_.find(match);
    if (pos == by_match_.end()) return removed;
    std::vector<SlotIt> hits;
    for (SlotIt it = pos->head; it != entries_.end(); it = it->lower) {
      if (!priority || it->entry.priority == *priority) hits.push_back(it);
    }
    // Install order, as a scan of the list would return them.
    std::sort(hits.begin(), hits.end(), [](SlotIt a, SlotIt b) { return a->seq < b->seq; });
    for (const SlotIt it : hits) removed.push_back(take(it, of::FlowRemovedReason::Delete));
    return removed;
  }
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (match.subsumes(it->entry.match)) {
      auto victim = it++;
      removed.push_back(take(victim, of::FlowRemovedReason::Delete));
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<RemovedEntry> FlowTable::expire(sim::SimTime now) {
  std::vector<RemovedEntry> removed;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const FlowEntry& e = it->entry;
    of::FlowRemovedReason reason{};
    bool expired = false;
    if (e.hard_timeout_s != 0 && now - e.installed_at >= sim::SimTime::seconds(e.hard_timeout_s)) {
      expired = true;
      reason = of::FlowRemovedReason::HardTimeout;
    } else if (e.idle_timeout_s != 0 &&
               now - e.last_used >= sim::SimTime::seconds(e.idle_timeout_s)) {
      expired = true;
      reason = of::FlowRemovedReason::IdleTimeout;
    }
    if (expired) {
      auto victim = it++;
      removed.push_back(take(victim, reason));
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<const FlowEntry*> FlowTable::entries() const {
  std::vector<const FlowEntry*> out;
  out.reserve(entries_.size());
  for (const Slot& s : entries_) out.push_back(&s.entry);
  return out;
}

}  // namespace sdnbuf::sw
