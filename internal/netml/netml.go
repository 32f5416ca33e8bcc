// Package netml reimplements the flow representations of the NetML
// library (Yang et al. 2020) that the paper's packet anomaly-detection
// experiment uses (Figure 4, Table 2): six per-flow feature vectors —
// IAT, SIZE, IAT_SIZE, STATS, SAMP-NUM, SAMP-SIZE — extracted from
// 5-tuple packet groups, fed to a one-class SVM. As in NetML, only
// flows with at least two packets are representable.
package netml

import (
	"fmt"

	"github.com/netdpsyn/netdpsyn/internal/ml"
	"github.com/netdpsyn/netdpsyn/internal/stats"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Mode selects a flow representation.
type Mode string

// The six NetML modes evaluated in Figure 4 (names as in the paper's
// x-axis: IS abbreviates IAT_SIZE, SN SAMP-NUM, SS SAMP-SIZE).
const (
	IAT      Mode = "IAT"
	Size     Mode = "SIZE"
	IATSize  Mode = "IS"
	Stats    Mode = "STATS"
	SampNum  Mode = "SN"
	SampSize Mode = "SS"
)

// Modes lists all six in the paper's order.
var Modes = []Mode{IAT, Size, IATSize, Stats, SampNum, SampSize}

const (
	// seqLen is the truncation/padding length of sequence modes.
	seqLen = 10
	// sampWindows is the number of SAMP-* time windows.
	sampWindows = 10
)

// Represent converts 5-tuple packet groups into feature vectors under
// the given mode, skipping flows with fewer than two packets. It
// returns one vector per eligible flow.
func Represent(groups []trace.Group, mode Mode) ([][]float64, error) {
	var out [][]float64
	for _, g := range groups {
		if len(g.Packets) < 2 {
			continue
		}
		v, err := flowVector(g, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func flowVector(g trace.Group, mode Mode) ([]float64, error) {
	switch mode {
	case IAT:
		return padSeq(iats(g), seqLen), nil
	case Size:
		return padSeq(sizes(g), seqLen), nil
	case IATSize:
		return append(padSeq(iats(g), seqLen), padSeq(sizes(g), seqLen)...), nil
	case Stats:
		return statsVector(g), nil
	case SampNum:
		return sampled(g, false), nil
	case SampSize:
		return sampled(g, true), nil
	default:
		return nil, fmt.Errorf("netml: unknown mode %q", mode)
	}
}

func iats(g trace.Group) []float64 {
	raw := trace.InterArrivals(g.Packets)
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = float64(v)
	}
	return out
}

func sizes(g trace.Group) []float64 {
	out := make([]float64, len(g.Packets))
	for i, p := range g.Packets {
		out[i] = float64(p.Len)
	}
	return out
}

func padSeq(xs []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, xs)
	return out
}

// statsVector computes NetML's 10 STATS features: flow duration,
// packet count, byte count, packets/s, bytes/s, mean/std/max/min
// packet size, and mean IAT.
func statsVector(g trace.Group) []float64 {
	sz := sizes(g)
	ia := iats(g)
	dur := float64(g.Packets[len(g.Packets)-1].TS-g.Packets[0].TS) / 1000.0 // seconds
	if dur <= 0 {
		dur = 1e-3
	}
	var bytes float64
	for _, s := range sz {
		bytes += s
	}
	return []float64{
		dur,
		float64(len(g.Packets)),
		bytes,
		float64(len(g.Packets)) / dur,
		bytes / dur,
		stats.Mean(sz),
		stats.StdDev(sz),
		stats.Max(sz),
		stats.Min(sz),
		stats.Mean(ia),
	}
}

// sampled splits the flow's duration into fixed windows and counts
// packets (SAMP-NUM) or bytes (SAMP-SIZE) per window.
func sampled(g trace.Group, bytes bool) []float64 {
	out := make([]float64, sampWindows)
	start := g.Packets[0].TS
	end := g.Packets[len(g.Packets)-1].TS
	span := end - start + 1
	for _, p := range g.Packets {
		w := int((p.TS - start) * sampWindows / span)
		if w >= sampWindows {
			w = sampWindows - 1
		}
		if bytes {
			out[w] += float64(p.Len)
		} else {
			out[w]++
		}
	}
	return out
}

// FitDetector trains the default one-class SVM on a representation
// (NetML's default detector).
func FitDetector(X [][]float64, seed uint64) (*ml.OCSVM, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("netml: no representable flows (need ≥2 packets per flow)")
	}
	oc := ml.NewOCSVM(ml.OCSVMConfig{Nu: 0.1, Epochs: 30, LearningRate: 0.01, Seed: seed})
	if err := oc.Fit(X); err != nil {
		return nil, err
	}
	return oc, nil
}

// AnomalyRatios fits the detector on the raw trace's representation
// and scores both traces with it, returning (ano_raw, ano_syn) — the
// quantities whose relative error Figure 4 reports. Using one
// detector for both is what makes the ratio a fidelity measure: a
// distribution-faithful synthetic trace lands the same fraction of
// flows outside the learned region.
func AnomalyRatios(rawX, synX [][]float64, seed uint64) (anoRaw, anoSyn float64, err error) {
	oc, err := FitDetector(rawX, seed)
	if err != nil {
		return 0, 0, fmt.Errorf("netml: raw trace: %w", err)
	}
	if len(synX) == 0 {
		return 0, 0, fmt.Errorf("netml: synthetic trace has no representable flows")
	}
	return oc.AnomalyRatio(rawX), oc.AnomalyRatio(synX), nil
}
