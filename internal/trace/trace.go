// Package trace provides the network-record substrate: typed Packet
// and Flow records, the IP 5-tuple flow key, and the per-5-tuple
// packet grouping used by the NetML feature extraction. The design
// follows gopacket's Endpoint/Flow idiom: a FiveTuple is a comparable
// value usable as a map key.
package trace

import (
	"fmt"
	"sort"
)

// Proto is an IANA layer-4 protocol number. Only the three protocols
// present in the paper's datasets are named; others pass through as
// raw numbers.
type Proto uint8

// Named protocol numbers.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("PROTO_%d", uint8(p))
	}
}

// ParseProto maps a protocol name to its number, defaulting to TCP for
// unknown names (mirroring how the public flow datasets are coded).
func ParseProto(s string) Proto {
	switch s {
	case "ICMP", "icmp":
		return ProtoICMP
	case "UDP", "udp":
		return ProtoUDP
	default:
		return ProtoTCP
	}
}

// FiveTuple is the IP 5-tuple flow identifier
// ⟨srcip, dstip, srcport, dstport, proto⟩. It is comparable and
// therefore usable directly as a map key.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// String renders the tuple in "src:sport > dst:dport/proto" form.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d > %s:%d/%s",
		ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort, t.Proto)
}

func ipString(u uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// Packet is one layer-3/4 packet header record, the unit of the
// paper's packet datasets (CAIDA, DC).
type Packet struct {
	FiveTuple
	TS     int64 // capture timestamp, milliseconds
	Len    int   // packet length in bytes (pkt_len)
	TTL    int
	Flags  int // TCP flags byte; doubles as the "flag" label in CAIDA/DC
	Chksum int
	Label  int // label code given by the data collector
}

// Flow is one aggregated flow record, the unit of the paper's flow
// datasets (TON, UGR16, CIDDS).
type Flow struct {
	FiveTuple
	TS      int64 // timestamp of the first packet, milliseconds
	TD      int64 // duration, milliseconds
	Packets int64 // number of packets (pkt)
	Bytes   int64 // number of bytes (byt)
	Label   int   // label code (benign/attack class)
}

// Group is a 5-tuple bucket of time-sorted packets.
type Group struct {
	Tuple   FiveTuple
	Packets []Packet
}

// GroupByTuple buckets packets by their 5-tuple, sorting each bucket
// by timestamp, and returns groups in first-seen order.
func GroupByTuple(pkts []Packet) []Group {
	byTuple := make(map[FiveTuple]int)
	var groups []Group
	for _, p := range pkts {
		i, ok := byTuple[p.FiveTuple]
		if !ok {
			i = len(groups)
			byTuple[p.FiveTuple] = i
			groups = append(groups, Group{Tuple: p.FiveTuple})
		}
		groups[i].Packets = append(groups[i].Packets, p)
	}
	for i := range groups {
		g := groups[i].Packets
		sort.SliceStable(g, func(a, b int) bool { return g[a].TS < g[b].TS })
	}
	return groups
}

// InterArrivals returns the successive timestamp differences within a
// time-sorted packet group. A group of n packets yields n-1 IATs.
func InterArrivals(pkts []Packet) []int64 {
	if len(pkts) < 2 {
		return nil
	}
	out := make([]int64, len(pkts)-1)
	for i := 1; i < len(pkts); i++ {
		out[i-1] = pkts[i].TS - pkts[i-1].TS
	}
	return out
}
