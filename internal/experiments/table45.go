package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/dp"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Table4 reproduces Appendix C's worked example on TON: the 1-way
// marginals of dstport and type, the noisy 2-way marginal before
// post-processing, and the repaired version after simplex projection
// — rendered like the paper's Table 4 (top cells only).
func Table4(r *Runner) (string, error) {
	raw, err := r.Raw(datagen.TON)
	if err != nil {
		return "", err
	}
	rho, err := dp.RhoFromEpsDelta(r.Scale.Epsilon, r.Scale.Delta)
	if err != nil {
		return "", err
	}
	enc, encoded, err := binning.Build(raw, binning.DefaultConfig(), 0.1*rho, r.Scale.Seed)
	if err != nil {
		return "", err
	}
	dp2 := encoded.Index(trace.FieldDstPort)
	ty := encoded.Index("type")
	if dp2 < 0 || ty < 0 {
		return "", fmt.Errorf("experiments: TON lacks dstport/type")
	}
	mDst := marginal.Compute(encoded, []int{dp2})
	mType := marginal.Compute(encoded, []int{ty})
	mJoint := marginal.Compute(encoded, []int{dp2, ty})
	noisy, err := mJoint.Publish(0.8*rho, r.Scale.Seed^0x44)
	if err != nil {
		return "", err
	}
	repaired := noisy.Clone()
	repaired.NormSub(float64(encoded.NumRows()))

	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Table 4: marginal tables for dstport and type on TON\n\n")
	fmt.Fprintf(w, "(a) 1-way marginal for dstport (top bins)\n")
	typeDict := raw.Dict(raw.Schema().Index("type"))

	type cell struct {
		label string
		v     float64
	}
	var dstCells []cell
	for i, c := range mDst.Counts {
		dstCells = append(dstCells, cell{binLabel(enc.Attrs[dp2].Bins[i]), c})
	}
	sort.Slice(dstCells, func(a, b int) bool { return dstCells[a].v > dstCells[b].v })
	for _, c := range dstCells[:minInt(3, len(dstCells))] {
		fmt.Fprintf(w, "\t⟨%s, *⟩\t%.0f\n", c.label, c.v)
	}
	fmt.Fprintf(w, "(b) 1-way marginal for type\n")
	for i, c := range mType.Counts {
		if i < 3 {
			fmt.Fprintf(w, "\t⟨*, %s⟩\t%.0f\n", typeDict.Value(i), c)
		}
	}
	fmt.Fprintf(w, "(c) noisy 2-way marginal before post-processing / (d) after\n")
	shown := 0
	for rank := 0; rank < len(dstCells) && shown < 3; rank++ {
		// Map the ranked dstport label back to its bin index.
		var bi int
		for i := range mDst.Counts {
			if binLabel(enc.Attrs[dp2].Bins[i]) == dstCells[rank].label {
				bi = i
				break
			}
		}
		for ti := 0; ti < minInt(2, mType.Domains[0]); ti++ {
			idx := noisy.Index(int32(bi), int32(ti))
			fmt.Fprintf(w, "\t⟨%s, %s⟩\t%.2f\t→\t%.0f\n",
				dstCells[rank].label, typeDict.Value(ti), noisy.Counts[idx], repaired.Counts[idx])
		}
		shown++
	}
	w.Flush()
	return sb.String(), nil
}

func binLabel(b binning.Bin) string {
	if b.Lo == b.Hi {
		return fmt.Sprintf("%d", b.Lo)
	}
	return fmt.Sprintf("%d-%d", b.Lo, b.Hi)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Table5 reproduces the dataset summary: records, attributes, and
// total domain (sum of per-attribute distinct raw values) for the
// five emulated datasets, plus the label field and type.
func Table5(r *Runner) (*Grid, error) {
	dsNames := make([]string, 0, 5)
	for _, ds := range datagen.Datasets() {
		dsNames = append(dsNames, string(ds))
	}
	g := NewGrid("Table 5: emulated dataset summary", dsNames, []string{"Records", "Attributes", "Domain"})
	g.Format = "%.0f"
	g.Note = "Label fields: TON=type, UGR16/CIDDS=label, CAIDA/DC=flag."
	for _, ds := range datagen.Datasets() {
		t, err := r.Raw(ds)
		if err != nil {
			return nil, err
		}
		var domain float64
		for c := 0; c < t.NumCols(); c++ {
			seen := make(map[int64]struct{})
			for _, v := range t.Column(c) {
				seen[v] = struct{}{}
			}
			domain += float64(len(seen))
		}
		g.Set(string(ds), "Records", float64(t.NumRows()))
		g.Set(string(ds), "Attributes", float64(t.NumCols()))
		g.Set(string(ds), "Domain", domain)
	}
	return g, nil
}
