#include "topo/topology.hpp"

#include <numeric>
#include <stdexcept>

#include "util/small_vector.hpp"

namespace sdnbuf::topo {

namespace {

[[noreturn]] void reject(const std::string& what) { throw std::invalid_argument("topology: " + what); }

}  // namespace

const Topology::Graph& Topology::empty_graph() {
  static const Graph kEmpty;
  return kEmpty;
}

Topology::Graph& Topology::mut() {
  if (g_ == nullptr) {
    g_ = std::make_shared<Graph>();
  } else if (g_.use_count() > 1) {
    g_ = std::make_shared<Graph>(*g_);
  }
  return *g_;
}

void Topology::reject_unknown(NodeId node) { reject("unknown node id " + std::to_string(node)); }

Topology::NodeRec& Topology::rec(NodeId node) {
  if (node >= n_nodes()) reject_unknown(node);
  return mut().nodes[node];
}

NodeId Topology::add_host(std::string name) {
  Graph& graph = mut();
  const NodeId id = static_cast<NodeId>(graph.nodes.size());
  NodeRec n;
  n.kind = NodeKind::Host;
  n.index = static_cast<unsigned>(graph.hosts.size());
  n.name = name.empty() ? "h" + std::to_string(n.index + 1) : std::move(name);
  graph.nodes.push_back(std::move(n));
  graph.hosts.push_back(id);
  return id;
}

NodeId Topology::add_switch(std::string name) {
  Graph& graph = mut();
  const NodeId id = static_cast<NodeId>(graph.nodes.size());
  NodeRec n;
  n.kind = NodeKind::Switch;
  n.index = static_cast<unsigned>(graph.switches.size());
  n.name = name.empty() ? "sw" + std::to_string(n.index + 1) : std::move(name);
  graph.nodes.push_back(std::move(n));
  graph.switches.push_back(id);
  return id;
}

std::size_t Topology::add_link(NodeId a, NodeId b) {
  NodeRec& ra = rec(a);
  NodeRec& rb = rec(b);
  if (a == b) reject("self-loop on " + ra.name);
  if (ra.kind == NodeKind::Host && rb.kind == NodeKind::Host) {
    reject("host-host link " + ra.name + " -- " + rb.name);
  }
  for (const Adjacency& adj : ra.adj) {
    if (adj.peer == b) reject("duplicate link " + ra.name + " -- " + rb.name);
  }
  if (ra.kind == NodeKind::Host && !ra.adj.empty()) reject("host " + ra.name + " multi-homed");
  if (rb.kind == NodeKind::Host && !rb.adj.empty()) reject("host " + rb.name + " multi-homed");

  Link link;
  link.a = a;
  link.b = b;
  link.a_port = ra.next_port++;
  link.b_port = rb.next_port++;
  link.host_edge = ra.kind == NodeKind::Host || rb.kind == NodeKind::Host;
  std::vector<Link>& links = mut().links;
  const std::size_t index = links.size();
  ra.adj.push_back(Adjacency{link.a_port, b, link.b_port, index});
  rb.adj.push_back(Adjacency{link.b_port, a, link.a_port, index});
  links.push_back(link);
  return index;
}

NodeId Topology::host_id(unsigned host_index) const {
  if (host_index >= n_hosts()) reject("host index " + std::to_string(host_index) + " out of range");
  return g().hosts[host_index];
}

NodeId Topology::switch_id(unsigned switch_index) const {
  if (switch_index >= n_switches()) {
    reject("switch index " + std::to_string(switch_index) + " out of range");
  }
  return g().switches[switch_index];
}

std::optional<std::uint16_t> Topology::port_to(NodeId from, NodeId to) const {
  for (const Adjacency& adj : rec(from).adj) {
    if (adj.peer == to) return adj.port;
  }
  return std::nullopt;
}

const Topology::Adjacency& Topology::attachment(NodeId host) const {
  const NodeRec& r = rec(host);
  if (r.kind != NodeKind::Host) reject(r.name + " is not a host");
  if (r.adj.empty()) reject("host " + r.name + " is not attached");
  return r.adj.front();
}

net::MacAddress Topology::host_mac(unsigned host_index) {
  // from_index(0) would be 02:00:00:00:00:00; start at 1 (and stay
  // compatible with the single-switch testbed's host1/host2 MACs).
  return net::MacAddress::from_index(static_cast<std::uint16_t>(host_index + 1));
}

net::Ipv4Address Topology::host_ip(unsigned host_index) {
  // 10.0.x.y, skipping .0 host octets; supports ~64k hosts.
  return net::Ipv4Address::from_octets(10, 0, static_cast<std::uint8_t>(host_index / 250),
                                       static_cast<std::uint8_t>(host_index % 250 + 1));
}

std::optional<NodeId> Topology::host_by_mac(const net::MacAddress& mac) const {
  if (mac.is_multicast()) return std::nullopt;
  const auto& o = mac.octets();
  if (o[0] != 0x02 || o[1] != 0 || o[2] != 0 || o[3] != 0) return std::nullopt;
  const unsigned index = (static_cast<unsigned>(o[4]) << 8 | o[5]);
  if (index == 0 || index > n_hosts()) return std::nullopt;
  return g().hosts[index - 1];
}

void Topology::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error("topology: " + what);
  };
  const Graph& graph = g();
  const std::vector<NodeRec>& nodes = graph.nodes;
  if (graph.hosts.empty()) fail("no hosts");
  if (graph.switches.empty()) fail("no switches");
  for (const NodeId h : graph.hosts) {
    if (nodes[h].adj.size() != 1) {
      fail("host " + nodes[h].name + " has " + std::to_string(nodes[h].adj.size()) +
           " links (want exactly 1)");
    }
  }
  // Connectivity: union-find over the links (no queue; inline for graphs as
  // small as the Fig. 1 chain, one allocation otherwise).
  util::SmallVector<NodeId, 8> parent;
  parent.resize(nodes.size());
  std::iota(parent.begin(), parent.end(), NodeId{0});
  const auto root = [&parent](NodeId n) {
    while (parent[n] != n) n = parent[n] = parent[parent[n]];
    return n;
  };
  for (const Link& link : graph.links) parent[root(link.a)] = root(link.b);
  for (NodeId n = 1; n < nodes.size(); ++n) {
    if (root(n) != root(0)) {
      fail("disconnected: " + nodes[n].name + " unreachable from " + nodes[0].name);
    }
  }
}

Topology make_chain(unsigned n_switches) {
  if (n_switches < 1) reject("a chain needs at least one switch");
  Topology t;
  // Wiring order fixes the port map: h1 first gives every switch port 1 on
  // its Host1 side, port 2 on its Host2 side.
  NodeId prev = t.add_host();
  for (unsigned i = 0; i < n_switches; ++i) {
    const NodeId sw = t.add_switch();
    t.add_link(prev, sw);
    prev = sw;
  }
  t.add_link(prev, t.add_host());
  t.validate();
  return t;
}

Topology make_leaf_spine(unsigned n_spines, unsigned n_leaves, unsigned hosts_per_leaf) {
  if (n_spines < 1 || n_leaves < 1 || hosts_per_leaf < 1) {
    reject("leaf-spine needs at least one spine, leaf and host per leaf");
  }
  Topology t;
  std::vector<NodeId> leaves, spines;
  for (unsigned l = 0; l < n_leaves; ++l) leaves.push_back(t.add_switch("leaf" + std::to_string(l + 1)));
  for (unsigned s = 0; s < n_spines; ++s) spines.push_back(t.add_switch("spine" + std::to_string(s + 1)));
  // Hosts first per leaf (leaf ports 1..H), then the spine uplinks
  // (H+1..H+S); spines see leaves in order (ports 1..L).
  for (unsigned l = 0; l < n_leaves; ++l) {
    for (unsigned h = 0; h < hosts_per_leaf; ++h) t.add_link(t.add_host(), leaves[l]);
  }
  for (unsigned l = 0; l < n_leaves; ++l) {
    for (unsigned s = 0; s < n_spines; ++s) t.add_link(leaves[l], spines[s]);
  }
  t.validate();
  return t;
}

Topology make_fat_tree(unsigned k) {
  if (k < 2 || k % 2 != 0) reject("fat-tree arity must be even and >= 2");
  const unsigned half = k / 2;
  Topology t;
  std::vector<NodeId> cores;
  for (unsigned c = 0; c < half * half; ++c) cores.push_back(t.add_switch("core" + std::to_string(c + 1)));
  std::vector<std::vector<NodeId>> aggs(k), edges(k);
  for (unsigned p = 0; p < k; ++p) {
    for (unsigned a = 0; a < half; ++a) {
      aggs[p].push_back(t.add_switch("p" + std::to_string(p) + "a" + std::to_string(a + 1)));
    }
    for (unsigned e = 0; e < half; ++e) {
      edges[p].push_back(t.add_switch("p" + std::to_string(p) + "e" + std::to_string(e + 1)));
    }
  }
  for (unsigned p = 0; p < k; ++p) {
    // Edge ports 1..k/2 go to hosts, k/2+1..k to the pod's aggs.
    for (unsigned e = 0; e < half; ++e) {
      for (unsigned h = 0; h < half; ++h) t.add_link(t.add_host(), edges[p][e]);
    }
    for (unsigned e = 0; e < half; ++e) {
      for (unsigned a = 0; a < half; ++a) t.add_link(edges[p][e], aggs[p][a]);
    }
    // Agg j uplinks to core group j: cores j*(k/2) .. j*(k/2)+k/2-1.
    for (unsigned a = 0; a < half; ++a) {
      for (unsigned j = 0; j < half; ++j) t.add_link(aggs[p][a], cores[a * half + j]);
    }
  }
  t.validate();
  return t;
}

Topology from_edge_list(unsigned n_hosts, unsigned n_switches,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Topology t;
  for (unsigned h = 0; h < n_hosts; ++h) t.add_host();
  for (unsigned s = 0; s < n_switches; ++s) t.add_switch("s" + std::to_string(s + 1));
  for (const auto& [a, b] : edges) t.add_link(a, b);
  t.validate();
  return t;
}

}  // namespace sdnbuf::topo
