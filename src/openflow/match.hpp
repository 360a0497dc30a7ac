// OpenFlow 1.0 ofp_match: 12-tuple match with per-field wildcards and
// CIDR-style wildcarding of IPv4 source/destination.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/rng.hpp"

namespace sdnbuf::of {

// OFPFW_* wildcard bits.
inline constexpr std::uint32_t kWildcardInPort = 1u << 0;
inline constexpr std::uint32_t kWildcardDlVlan = 1u << 1;
inline constexpr std::uint32_t kWildcardDlSrc = 1u << 2;
inline constexpr std::uint32_t kWildcardDlDst = 1u << 3;
inline constexpr std::uint32_t kWildcardDlType = 1u << 4;
inline constexpr std::uint32_t kWildcardNwProto = 1u << 5;
inline constexpr std::uint32_t kWildcardTpSrc = 1u << 6;
inline constexpr std::uint32_t kWildcardTpDst = 1u << 7;
inline constexpr int kWildcardNwSrcShift = 8;   // 6 bits: # of low IP bits ignored
inline constexpr int kWildcardNwDstShift = 14;  // 6 bits
inline constexpr std::uint32_t kWildcardNwSrcMask = 0x3fu << kWildcardNwSrcShift;
inline constexpr std::uint32_t kWildcardNwDstMask = 0x3fu << kWildcardNwDstShift;
inline constexpr std::uint32_t kWildcardDlVlanPcp = 1u << 20;
inline constexpr std::uint32_t kWildcardNwTos = 1u << 21;
inline constexpr std::uint32_t kWildcardAll = 0x3fffff;

struct Match {
  std::uint32_t wildcards = kWildcardAll;
  std::uint16_t in_port = 0;
  net::MacAddress dl_src;
  net::MacAddress dl_dst;
  std::uint16_t dl_vlan = 0xffff;  // OFP_VLAN_NONE
  std::uint8_t dl_vlan_pcp = 0;
  std::uint16_t dl_type = 0;
  std::uint8_t nw_tos = 0;
  std::uint8_t nw_proto = 0;
  net::Ipv4Address nw_src;
  net::Ipv4Address nw_dst;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  bool operator==(const Match&) const = default;

  // A match-everything entry (all fields wildcarded).
  [[nodiscard]] static Match wildcard_all() { return Match{}; }

  // Exact match on every field of `p` as received on `in_port` (what a
  // reactive controller installs per micro-flow).
  [[nodiscard]] static Match exact_from(const net::Packet& p, std::uint16_t in_port);

  // Does `p`, received on `port`, satisfy this match?
  [[nodiscard]] bool matches(const net::Packet& p, std::uint16_t port) const;

  // Is `other` a subset of this match (every packet matching `other` also
  // matches this)? Used for non-strict flow_mod delete.
  [[nodiscard]] bool subsumes(const Match& other) const;

  // # of low bits of nw_src/nw_dst that are ignored (0 = exact, >=32 = any).
  [[nodiscard]] int nw_src_ignored_bits() const;
  [[nodiscard]] int nw_dst_ignored_bits() const;
  void set_nw_src_ignored_bits(int bits);
  void set_nw_dst_ignored_bits(int bits);

  void encode(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static std::optional<Match> decode(std::span<const std::uint8_t> in);

  [[nodiscard]] std::string to_string() const;
};

// Hash over every field, consistent with Match::operator== (flow-table and
// controller rule indexes key on whole matches).
struct MatchHash {
  [[nodiscard]] std::size_t operator()(const Match& m) const noexcept {
    std::uint64_t h = util::mix64(m.wildcards | std::uint64_t{m.in_port} << 32 |
                                  std::uint64_t{m.dl_vlan} << 48);
    h = util::mix64(h ^ m.dl_src.to_u64() ^ std::uint64_t{m.dl_vlan_pcp} << 48 ^
                    std::uint64_t{m.nw_tos} << 56);
    h = util::mix64(h ^ m.dl_dst.to_u64() ^ std::uint64_t{m.dl_type} << 48 ^
                    std::uint64_t{m.nw_proto} << 56);
    h = util::mix64(h ^ m.nw_src.value() ^ std::uint64_t{m.nw_dst.value()} << 32);
    return util::mix64(h ^ m.tp_src ^ std::uint64_t{m.tp_dst} << 16);
  }
};

}  // namespace sdnbuf::of
