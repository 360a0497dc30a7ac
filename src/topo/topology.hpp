// The fabric graph: hosts, switches and links with per-switch port maps.
//
// The paper's testbed is one switch; its reactive `packet_in` overhead
// multiplies across every switch a new flow traverses in a datacenter
// fabric. `Topology` is the validated graph model underneath that scaling
// study: builders for the canonical datacenter shapes (linear chain,
// leaf-spine, k-ary fat-tree) plus arbitrary graphs from an edge list.
//
// Conventions shared with the rest of the repo:
//   - nodes get dense `NodeId`s in creation order; hosts and switches also
//     carry dense per-kind indices (host 0, host 1, ..., switch 0, ...)
//   - switch ports are auto-assigned 1, 2, ... in link-creation order, so a
//     builder's wiring order IS its port map (documented per builder)
//   - dpid convention downstream: switch index i <-> datapath_id i + 1
//   - host addressing is positional: `host_mac(i)` / `host_ip(i)` are pure
//     functions of the host index, and `host_by_mac` inverts the scheme
//
// Builder misuse (self-loops, host-host links, duplicate edges, multi-homed
// hosts, dangling node ids) throws std::invalid_argument; `validate()`
// throws std::runtime_error on structural problems a finished graph can
// still have (isolated hosts, a disconnected fabric). Simulation code never
// catches these — they are configuration errors — but tests can.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"

namespace sdnbuf::topo {

using NodeId = std::uint32_t;

enum class NodeKind : std::uint8_t { Host, Switch };

class Topology {
 public:
  // One end of a node's incident links. Adjacency lists are kept in
  // link-creation order, which for switches equals ascending port order.
  struct Adjacency {
    std::uint16_t port = 0;  // this node's port (hosts always use port 1)
    NodeId peer = 0;
    std::uint16_t peer_port = 0;
    std::size_t link = 0;  // index into links()
  };

  struct Link {
    NodeId a = 0;
    NodeId b = 0;
    std::uint16_t a_port = 0;
    std::uint16_t b_port = 0;
    bool host_edge = false;  // one endpoint is a host (access link)
  };

  NodeId add_host(std::string name = "");
  NodeId add_switch(std::string name = "");

  // Adds a bidirectional link between two existing nodes, auto-assigning the
  // next free port on each switch endpoint. Rejects self-loops, host-host
  // links, duplicate edges (either orientation) and a second link on a host.
  // Returns the link index.
  std::size_t add_link(NodeId a, NodeId b);

  [[nodiscard]] unsigned n_hosts() const { return static_cast<unsigned>(g().hosts.size()); }
  [[nodiscard]] unsigned n_switches() const { return static_cast<unsigned>(g().switches.size()); }
  [[nodiscard]] unsigned n_nodes() const { return static_cast<unsigned>(g().nodes.size()); }
  [[nodiscard]] std::size_t n_links() const { return g().links.size(); }

  [[nodiscard]] NodeKind kind(NodeId node) const { return rec(node).kind; }
  [[nodiscard]] bool is_host(NodeId node) const { return kind(node) == NodeKind::Host; }
  [[nodiscard]] const std::string& name(NodeId node) const { return rec(node).name; }
  // The dense per-kind index of a node (host index or switch index).
  [[nodiscard]] unsigned index_of(NodeId node) const { return rec(node).index; }

  [[nodiscard]] NodeId host_id(unsigned host_index) const;
  [[nodiscard]] NodeId switch_id(unsigned switch_index) const;
  [[nodiscard]] const std::vector<NodeId>& hosts() const { return g().hosts; }
  [[nodiscard]] const std::vector<NodeId>& switches() const { return g().switches; }
  [[nodiscard]] const std::vector<Link>& links() const { return g().links; }

  [[nodiscard]] const std::vector<Adjacency>& adjacency(NodeId node) const {
    return rec(node).adj;
  }
  // The port `from` uses to reach directly-connected `to`; nullopt when no
  // link exists between the two.
  [[nodiscard]] std::optional<std::uint16_t> port_to(NodeId from, NodeId to) const;

  // A host's single attachment point (valid once the host is linked).
  [[nodiscard]] const Adjacency& attachment(NodeId host) const;

  // Positional host addressing (02:00:00:00:xx:yy via MacAddress::from_index,
  // 10.0.x.y for the IP) — the inverse of host_by_mac.
  [[nodiscard]] static net::MacAddress host_mac(unsigned host_index);
  [[nodiscard]] static net::Ipv4Address host_ip(unsigned host_index);
  // NodeId of the host owning `mac` under the positional scheme; nullopt for
  // foreign MACs (multicast, broadcast, out of range).
  [[nodiscard]] std::optional<NodeId> host_by_mac(const net::MacAddress& mac) const;

  // Structural checks a finished fabric must pass: at least one host and one
  // switch, every host attached exactly once, and the whole graph connected.
  // Throws std::runtime_error naming the first problem found.
  void validate() const;

 private:
  struct NodeRec {
    NodeKind kind = NodeKind::Host;
    unsigned index = 0;  // dense per-kind index
    std::string name;
    std::vector<Adjacency> adj;
    std::uint16_t next_port = 1;
  };

  // The graph proper. Copies of a Topology share it until one of them is
  // modified, so handing a topology to a testbed costs no allocation.
  struct Graph {
    std::vector<NodeRec> nodes;
    std::vector<NodeId> hosts;
    std::vector<NodeId> switches;
    std::vector<Link> links;
  };

  [[nodiscard]] const Graph& g() const { return g_ != nullptr ? *g_ : empty_graph(); }
  [[nodiscard]] static const Graph& empty_graph();
  // The graph for modification, unshared (copied) first if another
  // Topology still refers to it.
  [[nodiscard]] Graph& mut();
  [[nodiscard]] const NodeRec& rec(NodeId node) const {
    const std::vector<NodeRec>& nodes = g().nodes;
    if (node >= nodes.size()) reject_unknown(node);
    return nodes[node];
  }
  [[nodiscard]] NodeRec& rec(NodeId node);
  [[noreturn]] static void reject_unknown(NodeId node);

  std::shared_ptr<Graph> g_;  // null = empty
};

// --- validated fabric builders ---
//
// Every builder returns a topology that passes validate(); the wiring order
// (and therefore the port map) is part of each builder's contract.

// Host1 -- sw1 -- sw2 -- ... -- swN -- Host2. Port map: port 1 faces Host1,
// port 2 faces Host2 on every switch — the core::Testbed convention.
[[nodiscard]] Topology make_chain(unsigned n_switches);

// Two-tier Clos: every leaf connects to every spine; hosts attach to leaves.
// Switch indices: leaves 0..n_leaves-1, then spines. Host index h lives on
// leaf h / hosts_per_leaf. Leaf ports: 1..H hosts, H+1..H+S spines (spine j
// at port H+1+j); spine ports: 1..L in leaf order.
[[nodiscard]] Topology make_leaf_spine(unsigned n_spines, unsigned n_leaves,
                                       unsigned hosts_per_leaf);

// k-ary fat-tree (k even, >= 2): (k/2)^2 cores, k pods of k/2 aggregation +
// k/2 edge switches, k/2 hosts per edge — k^3/4 hosts total. Switch indices:
// cores first, then per pod aggs then edges. Edge ports: 1..k/2 hosts,
// k/2+1..k aggs; agg ports: 1..k/2 edges, k/2+1..k cores (agg j reaches core
// group j*(k/2)..j*(k/2)+k/2-1); core ports: 1..k in pod order.
[[nodiscard]] Topology make_fat_tree(unsigned k);

// Arbitrary graph: hosts get NodeIds 0..n_hosts-1, switches follow; `edges`
// use those NodeIds. Builder-level link validation applies per edge and the
// result is validate()d before being returned.
[[nodiscard]] Topology from_edge_list(unsigned n_hosts, unsigned n_switches,
                                      const std::vector<std::pair<NodeId, NodeId>>& edges);

}  // namespace sdnbuf::topo
