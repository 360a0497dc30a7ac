// Topology engine unit tests: builder shapes and port maps, validation
// rejections, ECMP determinism and spread, path consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace sdnbuf::topo {
namespace {

net::FlowKey flow(std::uint32_t src_ip, std::uint16_t src_port) {
  net::FlowKey k;
  k.src_ip = net::Ipv4Address{src_ip};
  k.dst_ip = net::Ipv4Address::from_octets(10, 0, 0, 2);
  k.src_port = src_port;
  k.dst_port = 9;
  k.protocol = 17;
  return k;
}

TEST(Topology, ChainShapeAndPortMap) {
  const Topology t = make_chain(3);
  EXPECT_EQ(t.n_hosts(), 2u);
  EXPECT_EQ(t.n_switches(), 3u);
  EXPECT_EQ(t.n_links(), 4u);
  // Every switch: port 1 toward Host1, port 2 toward Host2.
  for (unsigned i = 0; i < 3; ++i) {
    const NodeId sw = t.switch_id(i);
    const NodeId left = i == 0 ? t.host_id(0) : t.switch_id(i - 1);
    const NodeId right = i == 2 ? t.host_id(1) : t.switch_id(i + 1);
    EXPECT_EQ(t.port_to(sw, left), std::uint16_t{1}) << "switch " << i;
    EXPECT_EQ(t.port_to(sw, right), std::uint16_t{2}) << "switch " << i;
  }
  EXPECT_EQ(t.attachment(t.host_id(0)).peer, t.switch_id(0));
  EXPECT_EQ(t.attachment(t.host_id(1)).peer, t.switch_id(2));
}

TEST(Topology, LeafSpineShapeAndPortMap) {
  const unsigned spines = 2, leaves = 3, hosts_per_leaf = 4;
  const Topology t = make_leaf_spine(spines, leaves, hosts_per_leaf);
  EXPECT_EQ(t.n_hosts(), leaves * hosts_per_leaf);
  EXPECT_EQ(t.n_switches(), spines + leaves);
  EXPECT_EQ(t.n_links(), leaves * hosts_per_leaf + leaves * spines);
  for (unsigned l = 0; l < leaves; ++l) {
    const NodeId leaf = t.switch_id(l);
    // Hosts on ports 1..H in index order.
    for (unsigned h = 0; h < hosts_per_leaf; ++h) {
      const NodeId host = t.host_id(l * hosts_per_leaf + h);
      EXPECT_EQ(t.attachment(host).peer, leaf);
      EXPECT_EQ(t.port_to(leaf, host), static_cast<std::uint16_t>(h + 1));
    }
    // Spines on ports H+1..H+S.
    for (unsigned s = 0; s < spines; ++s) {
      const NodeId spine = t.switch_id(leaves + s);
      EXPECT_EQ(t.port_to(leaf, spine), static_cast<std::uint16_t>(hosts_per_leaf + 1 + s));
      EXPECT_EQ(t.port_to(spine, leaf), static_cast<std::uint16_t>(l + 1));
    }
  }
}

TEST(Topology, FatTreeShape) {
  const unsigned k = 4;
  const Topology t = make_fat_tree(k);
  EXPECT_EQ(t.n_hosts(), k * k * k / 4);           // 16
  EXPECT_EQ(t.n_switches(), k * k / 4 + k * k);    // 4 cores + 16 pod switches
  // Every switch has exactly k ports in a k-ary fat-tree.
  for (unsigned i = 0; i < t.n_switches(); ++i) {
    EXPECT_EQ(t.adjacency(t.switch_id(i)).size(), k) << t.name(t.switch_id(i));
  }
  EXPECT_THROW(make_fat_tree(3), std::invalid_argument);  // odd arity
  EXPECT_THROW(make_fat_tree(0), std::invalid_argument);
}

TEST(Topology, CopiesAreIndependentValues) {
  // Copies share one graph until modified; a modification never shows
  // through another copy.
  const Topology original = make_chain(1);
  Topology copy = original;
  const NodeId extra = copy.add_switch();
  copy.add_link(copy.switch_id(0), extra);
  EXPECT_EQ(original.n_switches(), 1u);
  EXPECT_EQ(original.n_links(), 2u);
  EXPECT_EQ(original.adjacency(original.switch_id(0)).size(), 2u);
  EXPECT_EQ(copy.n_switches(), 2u);
  EXPECT_EQ(copy.n_links(), 3u);
  EXPECT_EQ(copy.adjacency(copy.switch_id(0)).size(), 3u);
  EXPECT_EQ(Topology{}.n_nodes(), 0u);
}

TEST(Topology, HostAddressingRoundTrips) {
  const Topology t = make_leaf_spine(2, 2, 3);
  for (unsigned h = 0; h < t.n_hosts(); ++h) {
    const auto node = t.host_by_mac(Topology::host_mac(h));
    ASSERT_TRUE(node.has_value()) << h;
    EXPECT_EQ(*node, t.host_id(h));
  }
  // Foreign and multicast MACs resolve to nothing.
  EXPECT_FALSE(t.host_by_mac(net::MacAddress::broadcast()).has_value());
  EXPECT_FALSE(t.host_by_mac(Topology::host_mac(t.n_hosts())).has_value());
}

TEST(Topology, BuilderRejectsMalformedGraphs) {
  Topology t;
  const NodeId h1 = t.add_host();
  const NodeId h2 = t.add_host();
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  EXPECT_THROW(t.add_link(s1, s1), std::invalid_argument);  // self-loop
  EXPECT_THROW(t.add_link(h1, h2), std::invalid_argument);  // host-host
  t.add_link(h1, s1);
  EXPECT_THROW(t.add_link(h1, s1), std::invalid_argument);  // duplicate
  EXPECT_THROW(t.add_link(s1, h1), std::invalid_argument);  // duplicate, flipped
  EXPECT_THROW(t.add_link(h1, s2), std::invalid_argument);  // multi-homed host
  EXPECT_THROW(t.add_link(s1, NodeId{99}), std::invalid_argument);  // dangling id
}

TEST(Topology, ValidateRejectsDisconnectedAndUnattached) {
  // Unattached host.
  {
    Topology t;
    t.add_host();
    const NodeId s = t.add_switch();
    t.add_link(t.add_host(), s);
    EXPECT_THROW(t.validate(), std::runtime_error);
  }
  // Two disconnected islands.
  {
    Topology t;
    t.add_link(t.add_host(), t.add_switch());
    t.add_link(t.add_host(), t.add_switch());
    EXPECT_THROW(t.validate(), std::runtime_error);
  }
  // from_edge_list runs the same validation.
  EXPECT_THROW(from_edge_list(2, 2, {{0, 2}, {1, 3}}), std::runtime_error);
}

TEST(Router, UnreachablePairRejectedAtConstruction) {
  // Router validates, so a disconnected topology never reaches BFS.
  Topology t;
  t.add_link(t.add_host(), t.add_switch());
  t.add_link(t.add_host(), t.add_switch());
  EXPECT_THROW(Router(t, 1), std::runtime_error);
}

TEST(Router, ChainRoutesFollowTheLine) {
  const Topology t = make_chain(3);
  const Router r{t, 7};
  const net::FlowKey f = flow(0x0a000001, 1234);
  // From sw1 toward host2: 2 -> 2 -> 2, then the host port.
  const auto path = r.path(t.switch_id(0), t.host_id(1), f);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), t.switch_id(0));
  EXPECT_EQ(path.back(), t.host_id(1));
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(r.next_hop_port(t.switch_id(i), t.host_id(1), f), std::uint16_t{2});
    EXPECT_EQ(r.next_hop_port(t.switch_id(i), t.host_id(0), f), std::uint16_t{1});
  }
  EXPECT_EQ(r.distance(t.switch_id(0), t.host_id(0)), 1u);
  EXPECT_EQ(r.distance(t.switch_id(2), t.host_id(0)), 3u);
}

TEST(Router, EcmpIsDeterministicPerSeedAndFlow) {
  const Topology t = make_leaf_spine(4, 4, 2);
  const Router a{t, 42};
  const Router b{t, 42};
  const Router c{t, 43};
  const NodeId src_leaf = t.switch_id(0);
  const NodeId dst_host = t.host_id(7);  // on leaf 3: crosses a spine
  bool seed_changed_some_pick = false;
  for (std::uint16_t p = 0; p < 64; ++p) {
    const net::FlowKey f = flow(0x0a000101 + p, static_cast<std::uint16_t>(10000 + p));
    // Same seed: identical pick, call after call and router after router.
    const auto pick_a = a.next_hop(src_leaf, dst_host, f);
    EXPECT_EQ(pick_a, a.next_hop(src_leaf, dst_host, f));
    EXPECT_EQ(pick_a, b.next_hop(src_leaf, dst_host, f));
    if (pick_a != c.next_hop(src_leaf, dst_host, f)) seed_changed_some_pick = true;
  }
  // A different seed re-rolls at least one flow's path.
  EXPECT_TRUE(seed_changed_some_pick);
}

TEST(Router, EcmpSpreadsFlowsAcrossSpines) {
  const Topology t = make_leaf_spine(4, 2, 2);
  const Router r{t, 1};
  const NodeId leaf = t.switch_id(0);
  const NodeId dst = t.host_id(3);  // on the other leaf
  ASSERT_EQ(r.next_hops(leaf, dst).size(), 4u);
  std::set<NodeId> used;
  for (std::uint16_t p = 0; p < 200; ++p) {
    const auto hop = r.next_hop(leaf, dst, flow(0x0a000001 + p, p));
    ASSERT_TRUE(hop.has_value());
    used.insert(hop->peer);
  }
  // 200 distinct flows should touch every one of the 4 spines.
  EXPECT_EQ(used.size(), 4u);
}

TEST(Router, EcmpPicksAreUniformChiSquared) {
  // Leaf-spine 4x4: every cross-leaf flow sees 4 equal-cost spines. The
  // mix64-based pick should be statistically indistinguishable from
  // uniform: Pearson chi-squared over the spine counts, df = 3, with the
  // 99.9th-percentile critical value 16.27. The test is deterministic (the
  // seeds are fixed), so a pass today is a pass forever; a biased pick
  // function fails it by orders of magnitude.
  const Topology t = make_leaf_spine(4, 4, 4);
  const NodeId leaf = t.switch_id(0);
  const NodeId dst = t.host_id(15);  // on leaf 3: every path crosses a spine
  constexpr int kFlows = 4000;
  for (const std::uint64_t seed : {1ULL, 42ULL, 1000003ULL}) {
    const Router r{t, seed};
    ASSERT_EQ(r.next_hops(leaf, dst).size(), 4u);
    std::map<NodeId, int> counts;
    for (int p = 0; p < kFlows; ++p) {
      const net::FlowKey f =
          flow(0x0a000001 + static_cast<std::uint32_t>(p), static_cast<std::uint16_t>(p));
      const auto hop = r.next_hop(leaf, dst, f);
      ASSERT_TRUE(hop.has_value());
      ++counts[hop->peer];
    }
    ASSERT_EQ(counts.size(), 4u);
    const double expected = kFlows / 4.0;
    double chi2 = 0.0;
    for (const auto& [peer, n] : counts) {
      const double d = static_cast<double>(n) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 16.27) << "seed " << seed << ": chi2 " << chi2;
  }
}

TEST(Router, EcmpPathPinsAcrossRuns) {
  // Cross-run regression: the exact spine each flow hashes to is part of
  // the reproducibility contract (sweep results depend on it), so pin a
  // handful of (seed 42, flow) picks to golden values. If mix64, the hash
  // input layout, or the candidate ordering ever changes, this fails —
  // bump the goldens only on a deliberate routing change.
  const Topology t = make_leaf_spine(4, 4, 4);
  const Router r{t, 42};
  const NodeId leaf = t.switch_id(0);
  const NodeId dst = t.host_id(15);
  const struct {
    std::uint16_t src_port;
    unsigned spine_index;  // 0..3, switch_id(4 + spine_index)
  } golden[] = {
      {100, 2}, {101, 2}, {102, 2}, {103, 3}, {104, 3}, {105, 3},
  };
  for (const auto& g : golden) {
    const net::FlowKey f = flow(0x0a000001, g.src_port);
    const auto hop = r.next_hop(leaf, dst, f);
    ASSERT_TRUE(hop.has_value());
    EXPECT_EQ(hop->peer, t.switch_id(4 + g.spine_index)) << "src_port " << g.src_port;
    // The full path is leaf0 -> spine -> leaf3 -> host, every hop the
    // router's own pick.
    const auto path = r.path(leaf, dst, f);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[0], leaf);
    EXPECT_EQ(path[1], t.switch_id(4 + g.spine_index));
    EXPECT_EQ(path[2], t.switch_id(3));
    EXPECT_EQ(path[3], dst);
  }
}

TEST(Router, NextHopSetsIndependentOfLinkInsertionOrder) {
  // Same leaf-spine graph wired in two different link orders; the sorted
  // next-hop sets (and thus the hash picks by peer) must agree on peers.
  Topology t1, t2;
  {
    const NodeId l0 = t1.add_switch("leaf1"), l1 = t1.add_switch("leaf2");
    const NodeId s0 = t1.add_switch("spine1"), s1 = t1.add_switch("spine2");
    t1.add_link(t1.add_host(), l0);
    t1.add_link(t1.add_host(), l1);
    t1.add_link(l0, s0);
    t1.add_link(l0, s1);
    t1.add_link(l1, s0);
    t1.add_link(l1, s1);
  }
  {
    const NodeId l0 = t2.add_switch("leaf1"), l1 = t2.add_switch("leaf2");
    const NodeId s0 = t2.add_switch("spine1"), s1 = t2.add_switch("spine2");
    t2.add_link(t2.add_host(), l0);
    t2.add_link(t2.add_host(), l1);
    // Spine links in the opposite order: ports differ, peers must not.
    t2.add_link(l0, s1);
    t2.add_link(l0, s0);
    t2.add_link(l1, s1);
    t2.add_link(l1, s0);
  }
  const Router r1{t1, 5}, r2{t2, 5};
  for (std::uint16_t p = 0; p < 32; ++p) {
    const net::FlowKey f = flow(0x0a000001 + p, p);
    const auto h1 = r1.next_hop(t1.switch_id(0), t1.host_id(1), f);
    const auto h2 = r2.next_hop(t2.switch_id(0), t2.host_id(1), f);
    ASSERT_TRUE(h1.has_value() && h2.has_value());
    // NodeIds coincide across the two wirings (same creation order).
    EXPECT_EQ(h1->peer, h2->peer) << "flow " << p;
  }
}

TEST(Router, PathAgreesWithPerHopPicks) {
  const Topology t = make_fat_tree(4);
  const Router r{t, 9};
  for (std::uint16_t p = 0; p < 32; ++p) {
    const net::FlowKey f = flow(0x0a000001 + p, p);
    const NodeId src_edge = t.attachment(t.host_id(0)).peer;
    const NodeId dst = t.host_id(15);  // other pod: full up-down path
    const auto path = r.path(src_edge, dst, f);
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.back(), dst);
    // Walking hop by hop reproduces the same node sequence.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto hop = r.next_hop(path[i], dst, f);
      ASSERT_TRUE(hop.has_value());
      EXPECT_EQ(hop->peer, path[i + 1]);
    }
    // Shortest: 5 switches (edge-agg-core-agg-edge) + the host.
    EXPECT_EQ(path.size(), 6u);
  }
}

}  // namespace
}  // namespace sdnbuf::topo
