// Package nn is a minimal from-scratch neural-network substrate:
// dense feed-forward networks with ReLU hidden layers, softmax
// cross-entropy loss, plain SGD, and — the part the NetShare baseline
// depends on — per-example gradients with clipping and Gaussian noise
// for DP-SGD training.
//
// Parameters and gradients live in flat float64 slices so clipping,
// noising, and stepping are simple vector operations.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Net is a dense feed-forward network. Hidden layers use ReLU; the
// output layer is linear (pair it with SoftmaxCrossEntropy or a
// regression loss).
type Net struct {
	sizes  []int
	params []float64
	grads  []float64
	// offsets[l] is the index of layer l's weights; biases follow.
	offsets []int
	// scratch activations, one slice per layer output, plus input.
	acts  [][]float64
	preds [][]float64 // pre-activation values for backprop
	delta [][]float64
}

// NewNet creates a network with the given layer sizes
// (input, hidden..., output), He-initialized with the given seed.
func NewNet(sizes []int, seed uint64) (*Net, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output sizes, got %v", sizes)
	}
	n := &Net{sizes: append([]int(nil), sizes...)}
	total := 0
	for l := 0; l+1 < len(sizes); l++ {
		n.offsets = append(n.offsets, total)
		total += sizes[l]*sizes[l+1] + sizes[l+1]
	}
	n.params = make([]float64, total)
	n.grads = make([]float64, total)
	rng := rand.New(rand.NewPCG(seed, seed^0x6c62272e07bb0142))
	for l := 0; l+1 < len(sizes); l++ {
		scale := math.Sqrt(2 / float64(sizes[l]))
		w := n.weights(l)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
	}
	for l := 0; l < len(sizes); l++ {
		n.acts = append(n.acts, make([]float64, sizes[l]))
		n.preds = append(n.preds, make([]float64, sizes[l]))
		n.delta = append(n.delta, make([]float64, sizes[l]))
	}
	return n, nil
}

// NumLayers returns the number of weight layers.
func (n *Net) NumLayers() int { return len(n.sizes) - 1 }

// weights returns the weight slice of layer l (out×in, row-major).
func (n *Net) weights(l int) []float64 {
	off := n.offsets[l]
	return n.params[off : off+n.sizes[l]*n.sizes[l+1]]
}

// biases returns the bias slice of layer l.
func (n *Net) biases(l int) []float64 {
	off := n.offsets[l] + n.sizes[l]*n.sizes[l+1]
	return n.params[off : off+n.sizes[l+1]]
}

func (n *Net) gradWeights(l int) []float64 {
	off := n.offsets[l]
	return n.grads[off : off+n.sizes[l]*n.sizes[l+1]]
}

func (n *Net) gradBiases(l int) []float64 {
	off := n.offsets[l] + n.sizes[l]*n.sizes[l+1]
	return n.grads[off : off+n.sizes[l+1]]
}

// Forward computes the network output (logits) for input x. The
// returned slice is owned by the net and valid until the next call.
func (n *Net) Forward(x []float64) []float64 {
	copy(n.acts[0], x)
	for l := 0; l < n.NumLayers(); l++ {
		in, out := n.sizes[l], n.sizes[l+1]
		w, b := n.weights(l), n.biases(l)
		src, pre, act := n.acts[l], n.preds[l+1], n.acts[l+1]
		for j := 0; j < out; j++ {
			s := b[j]
			row := w[j*in : (j+1)*in]
			for i, v := range src {
				s += row[i] * v
			}
			pre[j] = s
			if l+1 < n.NumLayers() { // hidden: ReLU
				if s < 0 {
					s = 0
				}
			}
			act[j] = s
		}
	}
	return n.acts[len(n.acts)-1]
}

// Backward accumulates parameter gradients for the most recent
// Forward call given dLoss/dLogits. Call ZeroGrad first for
// per-example gradients.
func (n *Net) Backward(gradOut []float64) {
	last := n.NumLayers()
	copy(n.delta[last], gradOut)
	for l := last - 1; l >= 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		w, gw, gb := n.weights(l), n.gradWeights(l), n.gradBiases(l)
		src := n.acts[l]
		d := n.delta[l+1]
		if l+1 < last { // ReLU derivative on hidden layers
			pre := n.preds[l+1]
			for j := range d {
				if pre[j] <= 0 {
					d[j] = 0
				}
			}
		}
		for j := 0; j < out; j++ {
			gb[j] += d[j]
			row := gw[j*in : (j+1)*in]
			for i, v := range src {
				row[i] += d[j] * v
			}
		}
		if l > 0 {
			prev := n.delta[l]
			for i := 0; i < in; i++ {
				var s float64
				for j := 0; j < out; j++ {
					s += w[j*in+i] * d[j]
				}
				prev[i] = s
			}
		}
	}
}

// ZeroGrad clears the gradient accumulator.
func (n *Net) ZeroGrad() {
	for i := range n.grads {
		n.grads[i] = 0
	}
}

// GradNorm returns the L2 norm of the accumulated gradients.
func (n *Net) GradNorm() float64 {
	var s float64
	for _, g := range n.grads {
		s += g * g
	}
	return math.Sqrt(s)
}

// ScaleGrad multiplies all gradients by f.
func (n *Net) ScaleGrad(f float64) {
	for i := range n.grads {
		n.grads[i] *= f
	}
}

// ClipGrad rescales the gradients to L2 norm at most c (DP-SGD's
// per-example clipping).
func (n *Net) ClipGrad(c float64) {
	norm := n.GradNorm()
	if norm > c && norm > 0 {
		n.ScaleGrad(c / norm)
	}
}

// AddGradFrom adds another net's gradients into this net's
// accumulator (used to sum clipped per-example gradients).
func (n *Net) AddGradFrom(o *Net) error {
	if len(n.grads) != len(o.grads) {
		return fmt.Errorf("nn: gradient size mismatch %d vs %d", len(n.grads), len(o.grads))
	}
	for i, g := range o.grads {
		n.grads[i] += g
	}
	return nil
}

// AddGradNoise adds N(0, σ²) noise to every gradient coordinate —
// the DP-SGD noising step (σ already includes the clip norm factor).
func (n *Net) AddGradNoise(sigma float64, rng *rand.Rand) {
	for i := range n.grads {
		n.grads[i] += rng.NormFloat64() * sigma
	}
}

// Step applies plain SGD: params -= lr · grads.
func (n *Net) Step(lr float64) {
	for i, g := range n.grads {
		n.params[i] -= lr * g
	}
}

// CloneArch returns a fresh network with the same architecture and
// zeroed gradients but independent parameters (same init seed yields
// identical parameters).
func (n *Net) CloneArch(seed uint64) (*Net, error) {
	return NewNet(n.sizes, seed)
}

// Softmax converts logits into probabilities (numerically stabilized).
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SoftmaxCrossEntropy returns the cross-entropy loss of logits
// against the true class label and dLoss/dLogits.
func SoftmaxCrossEntropy(logits []float64, label int) (loss float64, grad []float64) {
	p := Softmax(logits)
	grad = p // reuse: grad = p - onehot(label)
	eps := 1e-12
	loss = -math.Log(p[label] + eps)
	grad[label] -= 1
	return loss, grad
}
