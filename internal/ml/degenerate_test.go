package ml

import (
	"errors"
	"testing"

	"fsml/internal/dataset"
	"fsml/internal/faults"
)

// degenTrainers is the classifier roster the degradation contract covers:
// every trainer must survive degenerate data without panicking, either by
// returning a typed error (empty / attribute-free data) or by degrading
// to the documented majority-class model.
func degenTrainers() []Trainer {
	return []Trainer{NewC45(DefaultC45()), NaiveBayes{}, KNN{K: 3}}
}

// degenBase is a healthy two-class dataset the faults helpers degrade.
func degenBase() *dataset.Dataset {
	d := dataset.New([]string{"a", "b", "c"})
	for i := 0; i < 12; i++ {
		label, f := "good", float64(i)
		if i%3 == 0 {
			label = "bad-fs"
			f = float64(i) + 100
		}
		if err := d.Add(dataset.Instance{Features: []float64{f, f * 2, 1}, Label: label}); err != nil {
			panic(err)
		}
	}
	return d
}

func TestTrainersRejectEmptyDatasetTyped(t *testing.T) {
	base := degenBase()
	for _, tr := range degenTrainers() {
		for name, d := range map[string]*dataset.Dataset{
			"nil":   nil,
			"empty": faults.EmptyDataset(base.Attrs),
		} {
			if _, err := tr.Train(d); !errors.Is(err, ErrEmptyDataset) {
				t.Errorf("%s on %s dataset: err = %v, want ErrEmptyDataset", tr.Name(), name, err)
			}
		}
	}
}

func TestTrainersRejectAttributeFreeDatasetTyped(t *testing.T) {
	d := dataset.New(nil)
	for _, tr := range degenTrainers() {
		if _, err := tr.Train(d); !errors.Is(err, ErrNoAttributes) {
			// An attribute-free dataset also has zero addable instances,
			// so either typed rejection is acceptable — but never a panic
			// and never a trained model.
			if !errors.Is(err, ErrEmptyDataset) {
				t.Errorf("%s on attribute-free dataset: err = %v, want a typed rejection", tr.Name(), err)
			}
		}
	}
}

// TestTrainersDegradeToMajorityOnSingleClass pins the documented stub: a
// single-class dataset trains (no error, no panic) to a model that always
// answers that class.
func TestTrainersDegradeToMajorityOnSingleClass(t *testing.T) {
	sc := faults.SingleClass(degenBase())
	want := sc.Classes()[0]
	for _, tr := range degenTrainers() {
		c, err := tr.Train(sc)
		if err != nil {
			t.Errorf("%s on single-class dataset: %v", tr.Name(), err)
			continue
		}
		for _, feat := range [][]float64{{0, 0, 0}, {100, 200, 1}, {-5, 1e9, 3}} {
			if got := c.Predict(feat); got != want {
				t.Errorf("%s single-class predict(%v) = %q, want %q", tr.Name(), feat, got, want)
			}
		}
	}
}

// TestTrainersSurviveConstantFeatures pins the no-signal case: constant
// features carry nothing to split or standardize on, and every trainer
// must fall back to a prior/majority answer instead of dividing by a
// zero variance or looping on an unsplittable attribute.
func TestTrainersSurviveConstantFeatures(t *testing.T) {
	cf := faults.ConstantFeatures(degenBase(), 7.25)
	maj := majorityLabel(cf, seq(cf.Len()))
	for _, tr := range degenTrainers() {
		c, err := tr.Train(cf)
		if err != nil {
			t.Errorf("%s on constant-feature dataset: %v", tr.Name(), err)
			continue
		}
		if got := c.Predict([]float64{7.25, 7.25, 7.25}); got != maj {
			t.Errorf("%s constant-feature predict = %q, want majority %q", tr.Name(), got, maj)
		}
		// Far-away queries must still answer deterministically, not NaN-tie.
		if got := c.Predict([]float64{1e12, -1e12, 0}); got == "" {
			t.Errorf("%s constant-feature predict on outlier returned empty class", tr.Name())
		}
	}
}

// TestC45ConstantFeaturesIsRootLeaf pins the tree shape of the degraded
// model: with nothing to split on, training yields a single majority leaf.
func TestC45ConstantFeaturesIsRootLeaf(t *testing.T) {
	cf := faults.ConstantFeatures(degenBase(), 1)
	tree, err := NewC45(DefaultC45()).TrainTree(cf)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf {
		t.Errorf("constant-feature tree is not a root leaf:\n%s", tree)
	}
	if tree.Size() != 1 {
		t.Errorf("constant-feature tree size = %d, want 1", tree.Size())
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPredictPartial pins the missing-value descent used by the
// degradation path: marking the root attribute missing blends both
// subtrees by training population, and a clean vector reproduces
// Predict at full confidence.
func TestPredictPartial(t *testing.T) {
	// Hand-built stump: attr0 <= 10 -> "good" (8 instances), else
	// "bad-fs" (2 instances).
	tree := &Tree{
		Attrs: []string{"a", "b"},
		Root: &Node{
			Attr: 0, Threshold: 10, N: 10, E: 2,
			Left:  &Node{Leaf: true, Class: "good", N: 8},
			Right: &Node{Leaf: true, Class: "bad-fs", N: 2},
		},
	}
	feats := []float64{99, 0} // would go Right if attr0 were trusted
	flat, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}

	if class, conf := flat.PredictPartial(feats, []bool{false, false}); class != "bad-fs" || conf != 1 {
		t.Errorf("clean PredictPartial = (%q, %v), want (bad-fs, 1)", class, conf)
	}
	class, conf := flat.PredictPartial(feats, []bool{true, false})
	if class != "good" {
		t.Errorf("partial PredictPartial class = %q, want majority branch good", class)
	}
	if conf < 0.79 || conf > 0.81 {
		t.Errorf("partial PredictPartial confidence = %v, want 0.8 (8 of 10 instances)", conf)
	}

	// Even weighting when a hand-built tree has no population stats.
	noStats := &Tree{
		Attrs: []string{"a"},
		Root: &Node{
			Attr: 0, Threshold: 1,
			Left:  &Node{Leaf: true, Class: "x"},
			Right: &Node{Leaf: true, Class: "y"},
		},
	}
	noStatsFlat, err := Compile(noStats)
	if err != nil {
		t.Fatal(err)
	}
	if class, conf := noStatsFlat.PredictPartial([]float64{0}, []bool{true}); class != "x" || conf != 0.5 {
		t.Errorf("stat-free PredictPartial = (%q, %v), want tie broken to (x, 0.5)", class, conf)
	}
}
