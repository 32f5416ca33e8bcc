package trace

import (
	"fmt"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// Canonical field names shared across the five datasets (§2.1 of the
// paper).
const (
	FieldSrcIP   = "srcip"
	FieldDstIP   = "dstip"
	FieldSrcPort = "srcport"
	FieldDstPort = "dstport"
	FieldProto   = "proto"
	FieldTS      = "ts"
	FieldTD      = "td"
	FieldPkt     = "pkt"
	FieldByt     = "byt"
	FieldPktLen  = "pkt_len"
	FieldTTL     = "ttl"
	FieldTOS     = "tos"
	FieldID      = "id"
	FieldOff     = "off"
	FieldIHL     = "ihl"
	FieldVersion = "version"
	FieldChksum  = "chksum"
	FieldFlag    = "flag"
	FieldLabel   = "label"
	// FieldTSDiff is the auxiliary temporal attribute NetDPSyn adds
	// during pre-processing (§3.2).
	FieldTSDiff = "tsdiff"
)

// FlowSchema returns the canonical flow-header schema:
// ⟨srcip, dstip, srcport, dstport, proto⟩ + ts, td, pkt, byt + label.
// labelField is the dataset's label column name ("type" for TON,
// "label" for UGR16/CIDDS); extra fields (e.g. CIDDS "flags") are
// appended before the label.
func FlowSchema(labelField string, extra ...dataset.Field) *dataset.Schema {
	fields := []dataset.Field{
		{Name: FieldSrcIP, Kind: dataset.KindIP},
		{Name: FieldDstIP, Kind: dataset.KindIP},
		{Name: FieldSrcPort, Kind: dataset.KindPort},
		{Name: FieldDstPort, Kind: dataset.KindPort},
		{Name: FieldProto, Kind: dataset.KindCategorical},
		{Name: FieldTS, Kind: dataset.KindTimestamp},
		{Name: FieldTD, Kind: dataset.KindNumeric},
		{Name: FieldPkt, Kind: dataset.KindNumeric},
		{Name: FieldByt, Kind: dataset.KindNumeric},
	}
	fields = append(fields, extra...)
	fields = append(fields, dataset.Field{Name: labelField, Kind: dataset.KindCategorical, Label: true})
	return dataset.MustSchema(fields...)
}

// PacketSchema returns the canonical 15-attribute packet-header schema
// used by the CAIDA and DC emulators. The "flag" attribute doubles as
// the label, as in the paper's Table 5.
func PacketSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: FieldSrcIP, Kind: dataset.KindIP},
		dataset.Field{Name: FieldDstIP, Kind: dataset.KindIP},
		dataset.Field{Name: FieldSrcPort, Kind: dataset.KindPort},
		dataset.Field{Name: FieldDstPort, Kind: dataset.KindPort},
		dataset.Field{Name: FieldProto, Kind: dataset.KindCategorical},
		dataset.Field{Name: FieldTS, Kind: dataset.KindTimestamp},
		dataset.Field{Name: FieldPktLen, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldTTL, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldTOS, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldID, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldOff, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldIHL, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldVersion, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldChksum, Kind: dataset.KindNumeric},
		dataset.Field{Name: FieldFlag, Kind: dataset.KindCategorical, Label: true},
	)
}

// FlowsToTable converts flow records to a table with the given schema
// (which must have been produced by FlowSchema). labels maps label
// codes to strings; extra supplies values for any extra fields, keyed
// by field name, indexed per flow.
func FlowsToTable(schema *dataset.Schema, flows []Flow, labels []string, extra map[string][]int64) (*dataset.Table, error) {
	t := dataset.NewTable(schema, len(flows))
	protoCol := schema.Index(FieldProto)
	labelCol := schema.LabelIndex()
	if protoCol < 0 || labelCol < 0 {
		return nil, fmt.Errorf("trace: schema lacks proto or label field")
	}
	row := make([]int64, schema.NumFields())
	for i, f := range flows {
		for c, fld := range schema.Fields {
			switch fld.Name {
			case FieldSrcIP:
				row[c] = int64(f.SrcIP)
			case FieldDstIP:
				row[c] = int64(f.DstIP)
			case FieldSrcPort:
				row[c] = int64(f.SrcPort)
			case FieldDstPort:
				row[c] = int64(f.DstPort)
			case FieldProto:
				row[c] = t.CatCode(protoCol, f.Proto.String())
			case FieldTS:
				row[c] = f.TS
			case FieldTD:
				row[c] = f.TD
			case FieldPkt:
				row[c] = f.Packets
			case FieldByt:
				row[c] = f.Bytes
			default:
				if c == labelCol {
					name := "unknown"
					if f.Label >= 0 && f.Label < len(labels) {
						name = labels[f.Label]
					}
					row[c] = t.CatCode(labelCol, name)
				} else if vals, ok := extra[fld.Name]; ok && i < len(vals) {
					row[c] = vals[i]
				} else {
					row[c] = 0
				}
			}
		}
		if err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// PacketsToTable converts packet records to the canonical packet
// table. flagNames maps Packet.Flags codes to label strings.
func PacketsToTable(pkts []Packet, flagNames []string) (*dataset.Table, error) {
	schema := PacketSchema()
	t := dataset.NewTable(schema, len(pkts))
	protoCol := schema.Index(FieldProto)
	flagCol := schema.Index(FieldFlag)
	row := make([]int64, schema.NumFields())
	for _, p := range pkts {
		for c, fld := range schema.Fields {
			switch fld.Name {
			case FieldSrcIP:
				row[c] = int64(p.SrcIP)
			case FieldDstIP:
				row[c] = int64(p.DstIP)
			case FieldSrcPort:
				row[c] = int64(p.SrcPort)
			case FieldDstPort:
				row[c] = int64(p.DstPort)
			case FieldProto:
				row[c] = t.CatCode(protoCol, p.Proto.String())
			case FieldTS:
				row[c] = p.TS
			case FieldPktLen:
				row[c] = int64(p.Len)
			case FieldTTL:
				row[c] = int64(p.TTL)
			case FieldTOS:
				row[c] = 0
			case FieldID:
				row[c] = int64(p.Chksum % 65536)
			case FieldOff:
				row[c] = 0
			case FieldIHL:
				row[c] = 5
			case FieldVersion:
				row[c] = 4
			case FieldChksum:
				row[c] = int64(p.Chksum)
			case FieldFlag:
				name := "unknown"
				if p.Flags >= 0 && p.Flags < len(flagNames) {
					name = flagNames[p.Flags]
				}
				row[c] = t.CatCode(flagCol, name)
			}
		}
		if err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TableToPackets converts a packet-schema table back to packet
// records. Missing optional columns default to zero.
func TableToPackets(t *dataset.Table) ([]Packet, error) {
	s := t.Schema()
	need := []string{FieldSrcIP, FieldDstIP, FieldSrcPort, FieldDstPort, FieldProto, FieldTS, FieldPktLen}
	for _, n := range need {
		if !s.Has(n) {
			return nil, fmt.Errorf("trace: table lacks packet field %q", n)
		}
	}
	src, dst := t.ColumnByName(FieldSrcIP), t.ColumnByName(FieldDstIP)
	sp, dpt := t.ColumnByName(FieldSrcPort), t.ColumnByName(FieldDstPort)
	pr, ts, ln := t.ColumnByName(FieldProto), t.ColumnByName(FieldTS), t.ColumnByName(FieldPktLen)
	ttl := t.ColumnByName(FieldTTL)
	protoCol := s.Index(FieldProto)
	labelCol := s.LabelIndex()
	pkts := make([]Packet, t.NumRows())
	for i := range pkts {
		p := Packet{
			FiveTuple: FiveTuple{
				SrcIP: uint32(src[i]), DstIP: uint32(dst[i]),
				SrcPort: uint16(clampPort(sp[i])), DstPort: uint16(clampPort(dpt[i])),
				Proto: ParseProto(t.CatValue(protoCol, pr[i])),
			},
			TS:  ts[i],
			Len: int(ln[i]),
		}
		if ttl != nil {
			p.TTL = int(ttl[i])
		}
		if labelCol >= 0 {
			p.Label = int(t.Value(i, labelCol))
		}
		pkts[i] = p
	}
	return pkts, nil
}

// TableToFlows converts a flow-schema table back to flow records.
func TableToFlows(t *dataset.Table) ([]Flow, error) {
	s := t.Schema()
	need := []string{FieldSrcIP, FieldDstIP, FieldSrcPort, FieldDstPort, FieldProto, FieldTS, FieldTD, FieldPkt, FieldByt}
	for _, n := range need {
		if !s.Has(n) {
			return nil, fmt.Errorf("trace: table lacks flow field %q", n)
		}
	}
	src, dst := t.ColumnByName(FieldSrcIP), t.ColumnByName(FieldDstIP)
	sp, dpt := t.ColumnByName(FieldSrcPort), t.ColumnByName(FieldDstPort)
	pr, ts := t.ColumnByName(FieldProto), t.ColumnByName(FieldTS)
	td, pk, by := t.ColumnByName(FieldTD), t.ColumnByName(FieldPkt), t.ColumnByName(FieldByt)
	protoCol := s.Index(FieldProto)
	labelCol := s.LabelIndex()
	flows := make([]Flow, t.NumRows())
	for i := range flows {
		f := Flow{
			FiveTuple: FiveTuple{
				SrcIP: uint32(src[i]), DstIP: uint32(dst[i]),
				SrcPort: uint16(clampPort(sp[i])), DstPort: uint16(clampPort(dpt[i])),
				Proto: ParseProto(t.CatValue(protoCol, pr[i])),
			},
			TS: ts[i], TD: td[i], Packets: pk[i], Bytes: by[i],
		}
		if labelCol >= 0 {
			f.Label = int(t.Value(i, labelCol))
		}
		flows[i] = f
	}
	return flows, nil
}

func clampPort(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return v
}
