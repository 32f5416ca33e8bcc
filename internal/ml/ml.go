// Package ml is the from-scratch classical machine-learning substrate
// for the paper's downstream-task evaluation (Figures 3, 7, 8 and
// Tables 1, 2, 6, 7): the five classifiers — decision tree, logistic
// regression, random forest, gradient boosting, and a multi-layer
// perceptron — plus the linear one-class SVM used by the NetML
// anomaly-detection harness, feature encoding from trace tables, and
// evaluation helpers.
package ml

import (
	"fmt"
	"math"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// Classifier is a multiclass classification model.
type Classifier interface {
	// Fit trains on features X and labels y in [0, k).
	Fit(X [][]float64, y []int, k int) error
	// Predict returns the predicted class of one sample.
	Predict(x []float64) int
	// Name returns the paper's short name (DT, LR, RF, GB, MLP).
	Name() string
}

// Models lists the classifier names in the paper's Figure 3 order.
var Models = []string{"DT", "LR", "RF", "GB", "MLP"}

// NewClassifier constructs a classifier by short name with the
// evaluation's default hyperparameters.
func NewClassifier(name string, seed uint64) (Classifier, error) {
	switch name {
	case "DT":
		return NewDecisionTree(TreeConfig{MaxDepth: 8, MinLeaf: 4, Seed: seed}), nil
	case "LR":
		return NewLogistic(LogisticConfig{Epochs: 12, LearningRate: 0.05, L2: 1e-3, Seed: seed}), nil
	case "RF":
		return NewRandomForest(ForestConfig{Trees: 30, MaxDepth: 12, MinLeaf: 2, Seed: seed}), nil
	case "GB":
		return NewGradientBoosting(BoostConfig{Rounds: 20, MaxDepth: 4, LearningRate: 0.2, Seed: seed}), nil
	case "MLP":
		return NewMLP(MLPConfig{Hidden: []int{48}, Epochs: 12, LearningRate: 0.05, Batch: 32, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("ml: unknown model %q", name)
	}
}

// Features extracts the design matrix and label vector from a trace
// table: every non-label column becomes one float64 feature (raw
// values; linear models standardize internally) and the label column
// supplies class codes. It returns X, y, and the number of classes.
func Features(t *dataset.Table) ([][]float64, []int, int, error) {
	s := t.Schema()
	li := s.LabelIndex()
	if li < 0 {
		return nil, nil, 0, fmt.Errorf("ml: table has no label field")
	}
	var featCols []int
	for c := range s.Fields {
		if c != li {
			featCols = append(featCols, c)
		}
	}
	n := t.NumRows()
	X := make([][]float64, n)
	y := make([]int, n)
	flat := make([]float64, n*len(featCols))
	for r := 0; r < n; r++ {
		X[r] = flat[r*len(featCols) : (r+1)*len(featCols)]
		for j, c := range featCols {
			X[r][j] = float64(t.Value(r, c))
		}
		y[r] = int(t.Value(r, li))
	}
	k := 0
	if d := t.Dict(li); d != nil {
		k = d.Len()
	}
	for _, v := range y {
		if v+1 > k {
			k = v + 1
		}
	}
	if k < 2 {
		k = 2
	}
	return X, y, k, nil
}

// AlignLabels re-encodes the label codes of a synthesized table so
// they agree with the label dictionary of the reference (raw) table:
// DP synthesis preserves dictionaries, but baselines may emit their
// own coding. Unknown labels map to class 0.
func AlignLabels(ref, t *dataset.Table) []int {
	rli, tli := ref.Schema().LabelIndex(), t.Schema().LabelIndex()
	if rli < 0 || tli < 0 {
		return nil
	}
	refDict := ref.Dict(rli)
	out := make([]int, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		name := t.CatValue(tli, t.Value(r, tli))
		if c, ok := refDict.Lookup(name); ok {
			out[r] = c
		}
	}
	return out
}

// AlignFeatures re-codes the categorical feature columns of X — the
// design matrix Features(t) returned — through the reference table's
// dictionaries, in place. A table that shares the reference's
// dictionaries comes out unchanged; one re-loaded from CSV (codes in
// first-appearance order) then yields the same features. Values the
// reference never saw map to one code past its dictionary.
func AlignFeatures(ref, t *dataset.Table, X [][]float64) {
	li := t.Schema().LabelIndex()
	j := 0
	for c := range t.Schema().Fields {
		if c == li {
			continue
		}
		refDict, dict := ref.Dict(c), t.Dict(c)
		if refDict != nil && dict != nil {
			recode := make([]float64, dict.Len())
			for code := range recode {
				rc, ok := refDict.Lookup(dict.Value(code))
				if !ok {
					rc = refDict.Len()
				}
				recode[code] = float64(rc)
			}
			for _, x := range X {
				x[j] = recode[int(x[j])]
			}
		}
		j++
	}
}

// Accuracy returns the fraction of agreeing predictions.
func Accuracy(yTrue, yPred []int) float64 {
	if len(yTrue) == 0 || len(yTrue) != len(yPred) {
		return 0
	}
	correct := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue))
}

// EvaluateAccuracy trains the named model on (trainX, trainY) and
// returns its accuracy on (testX, testY).
func EvaluateAccuracy(name string, trainX [][]float64, trainY []int, testX [][]float64, testY []int, k int, seed uint64) (float64, error) {
	clf, err := NewClassifier(name, seed)
	if err != nil {
		return 0, err
	}
	if err := clf.Fit(trainX, trainY, k); err != nil {
		return 0, err
	}
	pred := make([]int, len(testX))
	for i, x := range testX {
		pred[i] = clf.Predict(x)
	}
	return Accuracy(testY, pred), nil
}

// standardizer performs z-score normalization fitted on training
// data, used by the linear and neural models.
type standardizer struct {
	mean, std []float64
}

func fitStandardizer(X [][]float64) *standardizer {
	if len(X) == 0 {
		return &standardizer{}
	}
	d := len(X[0])
	s := &standardizer{mean: make([]float64, d), std: make([]float64, d)}
	for _, x := range X {
		for j, v := range x {
			s.mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, x := range X {
		for j, v := range x {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-9 {
			s.std[j] = 1
		}
	}
	return s
}

func (s *standardizer) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		if j < len(s.mean) {
			out[j] = (v - s.mean[j]) / s.std[j]
		}
	}
	return out
}

func (s *standardizer) applyAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, x := range X {
		out[i] = s.apply(x)
	}
	return out
}

func argmax(xs []float64) int {
	best, bv := 0, math.Inf(-1)
	for i, v := range xs {
		if v > bv {
			best, bv = i, v
		}
	}
	return best
}
