package nn

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestNewNetValidation(t *testing.T) {
	if _, err := NewNet([]int{4}, 1); err == nil {
		t.Fatal("single-layer net must error")
	}
	n, err := NewNet([]int{3, 5, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumLayers() != 2 {
		t.Errorf("layers = %d", n.NumLayers())
	}
	// 3·5+5 + 5·2+2 = 32 params.
	if len(n.params) != 32 {
		t.Errorf("params = %d, want 32", len(n.params))
	}
}

func TestForwardDeterministic(t *testing.T) {
	a, _ := NewNet([]int{2, 4, 2}, 7)
	b, _ := NewNet([]int{2, 4, 2}, 7)
	x := []float64{0.5, -0.25}
	ya := a.Forward(x)
	yb := b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("same seed, different outputs")
		}
	}
}

func TestSoftmaxSums(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	var sum float64
	for _, v := range p {
		if v <= 0 {
			t.Errorf("softmax prob <= 0: %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	// Numerical gradient check on a tiny net.
	net, _ := NewNet([]int{3, 4, 2}, 13)
	x := []float64{0.2, -0.7, 1.1}
	label := 1

	net.ZeroGrad()
	logits := net.Forward(x)
	_, grad := SoftmaxCrossEntropy(logits, label)
	net.Backward(grad)
	analytic := append([]float64(nil), net.grads...)

	const h = 1e-6
	for _, pi := range []int{0, 3, 10, len(net.params) - 1} {
		orig := net.params[pi]
		net.params[pi] = orig + h
		lossPlus, _ := SoftmaxCrossEntropy(net.Forward(x), label)
		net.params[pi] = orig - h
		lossMinus, _ := SoftmaxCrossEntropy(net.Forward(x), label)
		net.params[pi] = orig
		numeric := (lossPlus - lossMinus) / (2 * h)
		if math.Abs(numeric-analytic[pi]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("grad[%d]: numeric %v, analytic %v", pi, numeric, analytic[pi])
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Learn XOR-ish separation: class = (x0 > 0) != (x1 > 0).
	rng := rand.New(rand.NewPCG(3, 5))
	n := 400
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		if (X[i][0] > 0) != (X[i][1] > 0) {
			y[i] = 1
		}
	}
	net, _ := NewNet([]int{2, 16, 2}, 17)
	loss := func() float64 {
		var s float64
		for i := range X {
			l, _ := SoftmaxCrossEntropy(net.Forward(X[i]), y[i])
			s += l
		}
		return s / float64(n)
	}
	before := loss()
	for epoch := 0; epoch < 60; epoch++ {
		for i := range X {
			net.ZeroGrad()
			logits := net.Forward(X[i])
			_, grad := SoftmaxCrossEntropy(logits, y[i])
			net.Backward(grad)
			net.Step(0.1)
		}
	}
	after := loss()
	if after >= before*0.5 {
		t.Errorf("training barely reduced loss: %v → %v", before, after)
	}
}

func TestClipGrad(t *testing.T) {
	net, _ := NewNet([]int{2, 3, 2}, 19)
	net.ZeroGrad()
	logits := net.Forward([]float64{5, -5})
	_, grad := SoftmaxCrossEntropy(logits, 0)
	net.Backward(grad)
	net.ScaleGrad(100) // inflate
	net.ClipGrad(1.0)
	if norm := net.GradNorm(); norm > 1+1e-9 {
		t.Errorf("clipped norm = %v", norm)
	}
	// Clipping below the norm is a no-op.
	net.ZeroGrad()
	net.grads[0] = 0.3
	net.ClipGrad(1.0)
	if net.grads[0] != 0.3 {
		t.Error("clip changed an in-bound gradient")
	}
}

func TestAddGradFromAndNoise(t *testing.T) {
	a, _ := NewNet([]int{2, 2}, 23)
	b, _ := NewNet([]int{2, 2}, 23)
	a.ZeroGrad()
	b.ZeroGrad()
	b.grads[0] = 2
	if err := a.AddGradFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.grads[0] != 2 {
		t.Error("AddGradFrom failed")
	}
	c, _ := NewNet([]int{3, 3}, 23)
	if err := a.AddGradFrom(c); err == nil {
		t.Error("size mismatch must error")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	before := append([]float64(nil), a.grads...)
	a.AddGradNoise(1.0, rng)
	same := true
	for i := range before {
		if a.grads[i] != before[i] {
			same = false
		}
	}
	if same {
		t.Error("noise did nothing")
	}
}

func TestStepMovesParams(t *testing.T) {
	net, _ := NewNet([]int{2, 2}, 29)
	net.ZeroGrad()
	net.grads[0] = 1
	p0 := net.params[0]
	net.Step(0.5)
	if math.Abs(net.params[0]-(p0-0.5)) > 1e-12 {
		t.Errorf("step wrong: %v → %v", p0, net.params[0])
	}
}

func TestCloneArch(t *testing.T) {
	a, _ := NewNet([]int{2, 3, 2}, 31)
	b, _ := a.CloneArch(31) // same architecture and init seed: same parameters
	x := []float64{0.1, 0.9}
	ya := a.Forward(x)
	yaCopy := append([]float64(nil), ya...)
	yb := b.Forward(x)
	for i := range yaCopy {
		if yaCopy[i] != yb[i] {
			t.Fatal("clone with the same seed, different outputs")
		}
	}
}
