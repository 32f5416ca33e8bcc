package trace

import (
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{ProtoTCP: "TCP", ProtoUDP: "UDP", ProtoICMP: "ICMP", Proto(99): "PROTO_99"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
	if ParseProto("udp") != ProtoUDP || ParseProto("ICMP") != ProtoICMP || ParseProto("whatever") != ProtoTCP {
		t.Error("ParseProto wrong")
	}
}

func TestGroupByTupleSortsWithin(t *testing.T) {
	ft := FiveTuple{SrcIP: 1, DstIP: 2, Proto: ProtoUDP}
	other := FiveTuple{SrcIP: 3, DstIP: 2, Proto: ProtoTCP}
	pkts := []Packet{
		{FiveTuple: ft, TS: 30},
		{FiveTuple: other, TS: 5},
		{FiveTuple: ft, TS: 10},
		{FiveTuple: ft, TS: 20},
	}
	groups := GroupByTuple(pkts)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	// Groups come in first-seen order, whatever their timestamps.
	if groups[0].Tuple != ft || groups[1].Tuple != other {
		t.Fatalf("group order: %+v, %+v", groups[0].Tuple, groups[1].Tuple)
	}
	g := groups[0].Packets
	if g[0].TS != 10 || g[1].TS != 20 || g[2].TS != 30 {
		t.Errorf("group not time-sorted: %v %v %v", g[0].TS, g[1].TS, g[2].TS)
	}
	ia := InterArrivals(g)
	if len(ia) != 2 || ia[0] != 10 || ia[1] != 10 {
		t.Errorf("InterArrivals = %v", ia)
	}
	if InterArrivals(g[:1]) != nil {
		t.Error("single packet has no IATs")
	}
}

func TestFlowTableRoundTrip(t *testing.T) {
	schema := FlowSchema("label")
	flows := []Flow{
		{FiveTuple: FiveTuple{SrcIP: 0xC0A80001, DstIP: 0x0A000001, SrcPort: 1234, DstPort: 80, Proto: ProtoTCP},
			TS: 1000, TD: 500, Packets: 10, Bytes: 5000, Label: 0},
		{FiveTuple: FiveTuple{SrcIP: 0xC0A80002, DstIP: 0x0A000002, SrcPort: 99, DstPort: 53, Proto: ProtoUDP},
			TS: 2000, TD: 10, Packets: 2, Bytes: 128, Label: 1},
	}
	tab, err := FlowsToTable(schema, flows, []string{"benign", "malicious"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	back, err := TableToFlows(tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if back[i].FiveTuple != flows[i].FiveTuple {
			t.Errorf("flow %d tuple mismatch: %+v vs %+v", i, back[i].FiveTuple, flows[i].FiveTuple)
		}
		if back[i].Packets != flows[i].Packets || back[i].Bytes != flows[i].Bytes {
			t.Errorf("flow %d volume mismatch", i)
		}
		if back[i].TS != flows[i].TS || back[i].TD != flows[i].TD {
			t.Errorf("flow %d timing mismatch", i)
		}
	}
}

func TestPacketTableRoundTrip(t *testing.T) {
	pkts := []Packet{
		{FiveTuple: FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
			TS: 10, Len: 60, TTL: 64, Flags: 1},
		{FiveTuple: FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8, Proto: ProtoUDP},
			TS: 20, Len: 1500, TTL: 32, Flags: 0},
	}
	tab, err := PacketsToTable(pkts, []string{"ACK", "SYN"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumCols() != 15 {
		t.Fatalf("packet schema should have 15 attributes, has %d", tab.NumCols())
	}
	back, err := TableToPackets(tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if back[i].FiveTuple != pkts[i].FiveTuple {
			t.Errorf("packet %d tuple mismatch", i)
		}
		if back[i].TS != pkts[i].TS || back[i].Len != pkts[i].Len || back[i].TTL != pkts[i].TTL {
			t.Errorf("packet %d field mismatch", i)
		}
	}
}

func TestTableToFlowsMissingField(t *testing.T) {
	s := dataset.MustSchema(dataset.Field{Name: "x", Kind: dataset.KindNumeric})
	tab := dataset.NewTable(s, 0)
	if _, err := TableToFlows(tab); err == nil {
		t.Error("missing flow fields must error")
	}
	if _, err := TableToPackets(tab); err == nil {
		t.Error("missing packet fields must error")
	}
}

func TestClampPort(t *testing.T) {
	if clampPort(-5) != 0 || clampPort(70000) != 65535 || clampPort(443) != 443 {
		t.Error("clampPort wrong")
	}
}
