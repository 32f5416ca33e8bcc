// Package netshare implements the NetShare baseline (Yin et al.,
// SIGCOMM'22) in the paper's "DP Pretrained-SAME" configuration: a
// neural generative model of header records trained with DP-SGD —
// per-example gradient clipping plus Gaussian noise on every SGD
// step — after pre-training on part of the data and fine-tuning on
// the rest.
//
// Substitution note (see DESIGN.md): the original NetShare is a
// time-series GAN in TensorFlow. A GAN is not required to reproduce
// what the paper measures about NetShare — that injecting DP noise
// into *every SGD step* of a generative model destroys utility that
// marginal-based methods retain. This implementation keeps the
// DP-SGD mechanism and the generative-model structure but factorizes
// the record autoregressively (one conditional softmax head per
// attribute over a shared feature encoding), which trains stably in
// pure Go. All DP accounting is identical in kind to NetShare's
// (subsampled Gaussian composition across steps).
package netshare

import (
	"fmt"
	"math/rand/v2"

	"github.com/netdpsyn/netdpsyn/internal/binning"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/dp"
	"github.com/netdpsyn/netdpsyn/internal/nn"
	"github.com/netdpsyn/netdpsyn/internal/trace"
)

// Config configures the NetShare baseline.
type Config struct {
	// Epsilon and Delta form the DP target. The original paper used
	// ε from 24.24 to 108; the NetDPSyn evaluation runs it at 2.0.
	Epsilon, Delta float64
	// Binning discretizes fields; domains are capped (neural softmax
	// heads over thousands of bins train poorly).
	Binning binning.Config
	// Hidden is the width of each conditional head's hidden layer.
	Hidden int
	// Epochs and Batch configure fine-tuning; PretrainEpochs and
	// PretrainFrac configure the "Pretrained-SAME" phase.
	Epochs, Batch  int
	PretrainEpochs int
	PretrainFrac   float64
	// ClipNorm is the DP-SGD per-example gradient clip.
	ClipNorm float64
	// LearningRate is the SGD step size.
	LearningRate float64
	// DisableDP turns off clipping and noise (the ε → ∞ rows of
	// Tables 6 and 7).
	DisableDP bool
	// SynthRecords fixes the output size (0 = same as input).
	SynthRecords int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the evaluation's settings.
func DefaultConfig() Config {
	b := binning.DefaultConfig()
	b.MaxBinsPerAttr = 256
	return Config{
		Epsilon:        2.0,
		Delta:          1e-5,
		Binning:        b,
		Hidden:         32,
		Epochs:         8,
		Batch:          64,
		PretrainEpochs: 4,
		PretrainFrac:   0.2,
		ClipNorm:       1.0,
		LearningRate:   0.05,
		Seed:           1,
	}
}

// Synthesizer is the NetShare baseline.
type Synthesizer struct {
	cfg Config
}

// New validates the config and returns a synthesizer.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Epsilon <= 0 || cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("netshare: invalid privacy target eps=%v delta=%v", cfg.Epsilon, cfg.Delta)
	}
	if cfg.Batch <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("netshare: batch and epochs must be positive")
	}
	if cfg.Binning.MaxBinsPerAttr > 256 {
		cfg.Binning.MaxBinsPerAttr = 256
	}
	return &Synthesizer{cfg: cfg}, nil
}

// Name returns the baseline's display name.
func (s *Synthesizer) Name() string { return "NetShare" }

// head is the conditional generator of one attribute: previous
// attributes' codes (normalized) in, softmax logits over this
// attribute's domain out.
type head struct {
	net    *nn.Net
	inDim  int
	outDim int
}

// Synthesize trains the generator under DP-SGD and samples a
// synthetic trace.
func (s *Synthesizer) Synthesize(t *dataset.Table) (*dataset.Table, error) {
	cfg := s.cfg
	rho, err := dp.RhoFromEpsDelta(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return nil, err
	}
	// Budget: 0.1 binning, 0.9 DP-SGD.
	rhoBin, rhoSGD := 0.1*rho, 0.9*rho

	enc, encoded, err := binning.Build(t, cfg.Binning, rhoBin, cfg.Seed^0xda)
	if err != nil {
		return nil, err
	}
	d := encoded.NumAttrs()
	n := encoded.NumRows()

	// Pretrained-SAME split.
	rng := rand.New(rand.NewPCG(cfg.Seed^0xdb, cfg.Seed^0xdc))
	perm := rng.Perm(n)
	cut := int(cfg.PretrainFrac * float64(n))
	pre, fine := perm[:cut], perm[cut:]

	// DP-SGD noise calibration over the total fine-tuning steps of
	// all heads (zCDP composes additively across heads and steps).
	stepsPerHead := cfg.Epochs * (len(fine) + cfg.Batch - 1) / cfg.Batch
	totalSteps := stepsPerHead * d
	var sigma float64
	if !cfg.DisableDP {
		q := float64(cfg.Batch) / float64(max(len(fine), 1))
		if q > 1 {
			q = 1
		}
		sigma, err = dp.SubsampledNoiseMultiplier(rhoSGD, totalSteps, q)
		if err != nil {
			return nil, err
		}
	}

	heads := make([]*head, d)
	for a := 0; a < d; a++ {
		inDim := a
		if inDim == 0 {
			inDim = 1 // constant input for the first attribute
		}
		net, err := nn.NewNet([]int{inDim, cfg.Hidden, encoded.Domains[a]}, cfg.Seed+uint64(a)*7561)
		if err != nil {
			return nil, err
		}
		heads[a] = &head{net: net, inDim: inDim, outDim: encoded.Domains[a]}
	}

	// Phase 1: non-private pre-training on the pretrain split.
	for a := 0; a < d; a++ {
		if err := s.trainHead(heads[a], encoded, a, pre, cfg.PretrainEpochs, 0, 0, rng); err != nil {
			return nil, err
		}
	}
	// Phase 2: DP-SGD fine-tuning on the remaining data.
	clip := cfg.ClipNorm
	if cfg.DisableDP {
		clip = 0
	}
	for a := 0; a < d; a++ {
		if err := s.trainHead(heads[a], encoded, a, fine, cfg.Epochs, clip, sigma, rng); err != nil {
			return nil, err
		}
	}

	// Autoregressive sampling.
	nOut := cfg.SynthRecords
	if nOut <= 0 {
		nOut = n
	}
	synth := s.generate(heads, encoded, nOut, rng)

	return enc.Decode(synth, binning.DecodeOptions{
		Seed:    cfg.Seed ^ 0xdd,
		GroupBy: fiveTuple(t.Schema()),
		TSField: tsFieldOf(t.Schema()),
		Constraints: []binning.GreaterEq{
			{A: trace.FieldByt, B: trace.FieldPkt},
		},
	})
}

// trainHead trains one conditional head. clip == 0 means plain SGD;
// otherwise per-example clipping plus N(0, (σ·clip)²) noise per batch
// coordinate — the DP-SGD update.
func (s *Synthesizer) trainHead(h *head, e *dataset.Encoded, attr int, rows []int, epochs int, clip, sigma float64, rng *rand.Rand) error {
	if len(rows) == 0 || epochs <= 0 {
		return nil
	}
	acc, err := h.net.CloneArch(1) // gradient accumulator
	if err != nil {
		return err
	}
	x := make([]float64, h.inDim)
	order := append([]int(nil), rows...)
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += s.cfg.Batch {
			end := min(start+s.cfg.Batch, len(order))
			acc.ZeroGrad()
			for _, r := range order[start:end] {
				s.inputFor(e, attr, r, x)
				logits := h.net.Forward(x)
				label := int(e.Cols[attr][r])
				_, grad := nn.SoftmaxCrossEntropy(logits, label)
				h.net.ZeroGrad()
				h.net.Backward(grad)
				if clip > 0 {
					h.net.ClipGrad(clip)
				}
				if err := acc.AddGradFrom(h.net); err != nil {
					return err
				}
			}
			if clip > 0 && sigma > 0 {
				acc.AddGradNoise(sigma*clip, rand.New(rand.NewPCG(s.cfg.Seed^uint64(start*31+ep), 0x2d358dccaa6c78a5)))
			}
			acc.ScaleGrad(1 / float64(end-start))
			// Apply the accumulated batch gradient to the head.
			h.net.ZeroGrad()
			if err := h.net.AddGradFrom(acc); err != nil {
				return err
			}
			h.net.Step(s.cfg.LearningRate)
		}
	}
	return nil
}

// inputFor encodes the conditioning prefix of record r for attribute
// attr: earlier attributes' codes scaled to [0, 1].
func (s *Synthesizer) inputFor(e *dataset.Encoded, attr, r int, x []float64) {
	if attr == 0 {
		x[0] = 1
		return
	}
	for j := 0; j < attr; j++ {
		x[j] = float64(e.Cols[j][r]) / float64(max(e.Domains[j], 1))
	}
}

// generate samples records autoregressively from the trained heads.
func (s *Synthesizer) generate(heads []*head, e *dataset.Encoded, n int, rng *rand.Rand) *dataset.Encoded {
	out := dataset.NewEncoded(e.Names, e.Domains, n)
	d := len(heads)
	x := make([]float64, d+1)
	for r := 0; r < n; r++ {
		for a := 0; a < d; a++ {
			h := heads[a]
			if a == 0 {
				x[0] = 1
			} else {
				for j := 0; j < a; j++ {
					x[j] = float64(out.Cols[j][r]) / float64(max(e.Domains[j], 1))
				}
			}
			logits := h.net.Forward(x[:h.inDim])
			probs := nn.Softmax(logits)
			out.Cols[a][r] = int32(sampleProbs(probs, rng))
		}
	}
	return out
}

func sampleProbs(p []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var c float64
	for i, v := range p {
		c += v
		if u <= c {
			return i
		}
	}
	return len(p) - 1
}

func fiveTuple(s *dataset.Schema) []string {
	var out []string
	for _, name := range []string{trace.FieldSrcIP, trace.FieldDstIP, trace.FieldSrcPort, trace.FieldDstPort, trace.FieldProto} {
		if s.Has(name) {
			out = append(out, name)
		}
	}
	return out
}

func tsFieldOf(s *dataset.Schema) string {
	if s.Has(trace.FieldTS) {
		return trace.FieldTS
	}
	return ""
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
