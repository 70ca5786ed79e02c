package ml

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fsml/internal/dataset"
	"fsml/internal/xrand"
)

// synthetic builds a 3-class dataset echoing the real problem's geometry:
// class decided by thresholds on two of four attributes, with the other
// two attributes pure noise, plus label-preserving jitter.
func synthetic(n int, seed uint64, noise float64) *dataset.Dataset {
	rng := xrand.New(seed)
	d := dataset.New([]string{"hitm", "fill", "junk1", "junk2"})
	for i := 0; i < n; i++ {
		hitm := rng.Float64() * 0.02
		fill := rng.Float64() * 0.1
		label := "good"
		if hitm > 0.01 {
			label = "bad-fs"
		} else if fill > 0.05 {
			label = "bad-ma"
		}
		feats := []float64{
			hitm + noise*rng.NormFloat64()*0.0005,
			fill + noise*rng.NormFloat64()*0.002,
			rng.Float64(),
			rng.NormFloat64(),
		}
		if err := d.Add(dataset.Instance{Features: feats, Label: label}); err != nil {
			panic(err)
		}
	}
	return d
}

func TestC45FitsSeparableData(t *testing.T) {
	d := synthetic(400, 1, 0)
	model, err := NewC45(DefaultC45()).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	conf := ResubstitutionError(model, d)
	if conf.Accuracy() < 0.995 {
		t.Errorf("training accuracy on separable data = %.3f, want ~1.0", conf.Accuracy())
	}
}

func TestC45IgnoresNoiseAttributes(t *testing.T) {
	d := synthetic(400, 2, 0)
	tree, err := NewC45(DefaultC45()).TrainTree(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tree.UsedAttrs() {
		if tree.Attrs[a] == "junk1" || tree.Attrs[a] == "junk2" {
			t.Errorf("tree split on a pure-noise attribute %q:\n%s", tree.Attrs[a], tree)
		}
	}
}

func TestC45TreeIsSmall(t *testing.T) {
	d := synthetic(600, 3, 0.2)
	tree, err := NewC45(DefaultC45()).TrainTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() > 12 {
		t.Errorf("pruned tree has %d leaves for a 2-threshold concept:\n%s", tree.Leaves(), tree)
	}
	if tree.Size() != 2*tree.Leaves()-1 {
		t.Errorf("binary tree size %d inconsistent with %d leaves", tree.Size(), tree.Leaves())
	}
}

func TestPruningShrinksTree(t *testing.T) {
	d := synthetic(500, 4, 1.5) // heavy noise invites overfitting
	unpruned, err := NewC45(C45Config{MinLeaf: 2, Confidence: 0}).TrainTree(d)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := NewC45(C45Config{MinLeaf: 2, Confidence: 0.25}).TrainTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Size() > unpruned.Size() {
		t.Errorf("pruning grew the tree: %d -> %d nodes", unpruned.Size(), pruned.Size())
	}
}

func TestC45SingleClassGivesLeaf(t *testing.T) {
	d := dataset.New([]string{"x"})
	for i := 0; i < 10; i++ {
		d.Add(dataset.Instance{Features: []float64{float64(i)}, Label: "good"})
	}
	tree, err := NewC45(DefaultC45()).TrainTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf || tree.Root.Class != "good" {
		t.Errorf("single-class data should give a single leaf, got:\n%s", tree)
	}
}

func TestC45RejectsEmpty(t *testing.T) {
	if _, err := NewC45(DefaultC45()).Train(dataset.New([]string{"x"})); err == nil {
		t.Errorf("empty dataset accepted")
	}
}

func TestC45DeterministicTraining(t *testing.T) {
	d := synthetic(300, 5, 0.5)
	t1, _ := NewC45(DefaultC45()).TrainTree(d)
	t2, _ := NewC45(DefaultC45()).TrainTree(d)
	if t1.String() != t2.String() {
		t.Errorf("identical data produced different trees")
	}
}

func TestTreeRenderFormat(t *testing.T) {
	d := synthetic(300, 6, 0)
	tree, _ := NewC45(DefaultC45()).TrainTree(d)
	s := tree.String()
	for _, want := range []string{"hitm <=", "hitm >", "Number of Leaves", "Size of the tree"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

// TestTreeJSONRoundTrip pins that the training form's JSON shape
// carries everything the compiled form needs: a tree decoded from its
// own encoding compiles to an identical FlatTree.
func TestTreeJSONRoundTrip(t *testing.T) {
	d := synthetic(300, 7, 0.3)
	tree, _ := NewC45(DefaultC45()).TrainTree(d)
	data, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got Tree
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Compile(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("decoded tree compiles differently")
	}
}

func TestAddErrsProperties(t *testing.T) {
	// Monotone in e; zero-error case matches the closed form.
	if got, want := addErrs(100, 0, 0.25), 100*(1-math.Pow(0.25, 0.01)); math.Abs(got-want) > 1e-9 {
		t.Errorf("addErrs(100,0,.25) = %v, want %v", got, want)
	}
	prev := -1.0
	for e := 0.0; e <= 20; e++ {
		v := addErrs(100, e, 0.25) + e
		if v < prev {
			t.Errorf("estimated errors not monotone at e=%v", e)
		}
		prev = v
	}
	// Near-certain confidence adds nothing.
	if addErrs(100, 5, 0.9999) > addErrs(100, 5, 0.25) {
		t.Errorf("higher confidence should add fewer errors")
	}
}

func TestNormalInverse(t *testing.T) {
	cases := map[float64]float64{0.5: 0, 0.975: 1.959964, 0.025: -1.959964, 0.75: 0.674490}
	for p, want := range cases {
		if got := normalInverse(p); math.Abs(got-want) > 1e-4 {
			t.Errorf("normalInverse(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestNormalInversePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("normalInverse(0) did not panic")
		}
	}()
	normalInverse(0)
}

func TestNaiveBayesOnSeparableData(t *testing.T) {
	d := synthetic(500, 9, 0)
	model, err := NaiveBayes{}.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	conf := ResubstitutionError(model, d)
	if conf.Accuracy() < 0.85 {
		t.Errorf("NB training accuracy = %.3f, want >= 0.85", conf.Accuracy())
	}
}

func TestKNNOnSeparableData(t *testing.T) {
	d := synthetic(500, 10, 0)
	model, err := KNN{K: 3}.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	conf := ResubstitutionError(model, d)
	if conf.Accuracy() < 0.95 {
		t.Errorf("3-NN training accuracy = %.3f, want >= 0.95", conf.Accuracy())
	}
}

func TestTrainerNames(t *testing.T) {
	if NewC45(DefaultC45()).Name() != "C4.5" {
		t.Errorf("C45 name")
	}
	if (NaiveBayes{}).Name() != "NaiveBayes" {
		t.Errorf("NB name")
	}
	if (KNN{}).Name() != "3-NN" || (KNN{K: 5}).Name() != "5-NN" {
		t.Errorf("KNN names")
	}
}

func TestConfusionMatrix(t *testing.T) {
	c := NewConfusion([]string{"good", "bad-fs"})
	c.Record("good", "good")
	c.Record("good", "bad-fs")
	c.Record("bad-fs", "bad-fs")
	if c.Total() != 3 || c.Correct() != 2 {
		t.Errorf("totals wrong: %d/%d", c.Correct(), c.Total())
	}
	if math.Abs(c.Accuracy()-2.0/3) > 1e-12 {
		t.Errorf("accuracy = %v", c.Accuracy())
	}
	if c.Get("good", "bad-fs") != 1 {
		t.Errorf("Get wrong")
	}
	if !strings.Contains(c.String(), "Accuracy") {
		t.Errorf("render missing accuracy")
	}
}

func TestConfusionRecordPanicsOnUnknown(t *testing.T) {
	c := NewConfusion([]string{"a"})
	defer func() {
		if recover() == nil {
			t.Errorf("unknown class accepted")
		}
	}()
	c.Record("a", "zzz")
}

func TestConfusionAdd(t *testing.T) {
	a := NewConfusion([]string{"x", "y"})
	b := NewConfusion([]string{"x", "y"})
	a.Record("x", "x")
	b.Record("x", "y")
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 2 {
		t.Errorf("Add total = %d", a.Total())
	}
	c := NewConfusion([]string{"x", "z"})
	if err := a.Add(c); err == nil {
		t.Errorf("Add accepted different classes")
	}
}

func TestCrossValidateHighAccuracyOnCleanData(t *testing.T) {
	d := synthetic(600, 11, 0.1)
	conf, err := CrossValidate(NewC45(DefaultC45()), d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != d.Len() {
		t.Errorf("CV evaluated %d of %d instances", conf.Total(), d.Len())
	}
	if conf.Accuracy() < 0.95 {
		t.Errorf("10-fold CV accuracy = %.3f, want >= 0.95", conf.Accuracy())
	}
}

func TestCrossValidateEveryInstanceOnce(t *testing.T) {
	f := func(seed uint64) bool {
		d := synthetic(100, seed, 0.5)
		conf, err := CrossValidate(KNN{K: 1}, d, 5, seed)
		return err == nil && conf.Total() == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestC45BeatsGuessingUnderNoise: even with label noise, the tree should
// stay well above the majority-class baseline.
func TestC45BeatsGuessingUnderNoise(t *testing.T) {
	d := synthetic(600, 12, 1.0)
	conf, err := CrossValidate(NewC45(DefaultC45()), d, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.CountByClass()
	maxClass := 0
	for _, n := range counts {
		if n > maxClass {
			maxClass = n
		}
	}
	baseline := float64(maxClass) / float64(d.Len())
	if conf.Accuracy() < baseline+0.05 {
		t.Errorf("CV accuracy %.3f not better than majority baseline %.3f", conf.Accuracy(), baseline)
	}
}

func TestMajorityLabelTieBreaksLexicographically(t *testing.T) {
	d := dataset.New([]string{"x"})
	d.Add(dataset.Instance{Features: []float64{1}, Label: "zebra"})
	d.Add(dataset.Instance{Features: []float64{2}, Label: "apple"})
	if got := majorityLabel(d, []int{0, 1}); got != "apple" {
		t.Errorf("tie broke to %q, want apple", got)
	}
}

func TestDecisionStumpSingleSplit(t *testing.T) {
	d := synthetic(400, 20, 0)
	model, err := DecisionStump{}.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	flat := model.(*FlatTree)
	if len(flat.Nodes) > 3 {
		t.Errorf("stump has %d nodes, want <= 3", len(flat.Nodes))
	}
	conf := ResubstitutionError(model, d)
	// One split cannot separate three classes perfectly, but must beat
	// the majority baseline.
	counts := d.CountByClass()
	maxClass := 0
	for _, n := range counts {
		if n > maxClass {
			maxClass = n
		}
	}
	if conf.Accuracy() <= float64(maxClass)/float64(d.Len()) {
		t.Errorf("stump accuracy %.3f no better than majority", conf.Accuracy())
	}
}

func TestDecisionStumpSingleClass(t *testing.T) {
	d := dataset.New([]string{"x"})
	for i := 0; i < 6; i++ {
		d.Add(dataset.Instance{Features: []float64{float64(i)}, Label: "good"})
	}
	model, err := DecisionStump{}.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	if model.Predict([]float64{3}) != "good" {
		t.Errorf("degenerate stump mispredicts")
	}
}

func TestOneRBeatsGuessing(t *testing.T) {
	d := synthetic(500, 21, 0)
	model, err := OneR{}.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	conf := ResubstitutionError(model, d)
	if conf.Accuracy() < 0.6 {
		t.Errorf("OneR training accuracy %.3f too low", conf.Accuracy())
	}
}

func TestOneRPredictOutOfRange(t *testing.T) {
	d := synthetic(100, 22, 0)
	model, err := OneR{Buckets: 4}.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	// Short feature vectors fall back to the default label.
	if got := model.Predict(nil); got == "" {
		t.Errorf("OneR returned empty label for empty features")
	}
}

func TestOneRRejectsEmpty(t *testing.T) {
	if _, err := (OneR{}).Train(dataset.New([]string{"x"})); err == nil {
		t.Errorf("empty dataset accepted")
	}
	if _, err := (DecisionStump{}).Train(dataset.New([]string{"x"})); err == nil {
		t.Errorf("empty dataset accepted")
	}
}

func TestSimpleClassifierNames(t *testing.T) {
	if (OneR{}).Name() != "OneR" || (DecisionStump{}).Name() != "DecisionStump" {
		t.Errorf("names wrong")
	}
}

// TestC45BeatsSimpleBaselines: the full tree must outperform the
// single-attribute baselines on the 2-threshold concept.
func TestC45BeatsSimpleBaselines(t *testing.T) {
	d := synthetic(600, 23, 0.2)
	acc := func(tr Trainer) float64 {
		conf, err := CrossValidate(tr, d, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		return conf.Accuracy()
	}
	c45 := acc(NewC45(DefaultC45()))
	stump := acc(DecisionStump{})
	oneR := acc(OneR{})
	if c45 <= stump || c45 <= oneR {
		t.Errorf("C4.5 (%.3f) should beat stump (%.3f) and OneR (%.3f) on a 2-attribute concept", c45, stump, oneR)
	}
}

func TestKappaProperties(t *testing.T) {
	// Perfect agreement: kappa 1.
	c := NewConfusion([]string{"a", "b"})
	for i := 0; i < 10; i++ {
		c.Record("a", "a")
		c.Record("b", "b")
	}
	if k := c.Kappa(); math.Abs(k-1) > 1e-12 {
		t.Errorf("perfect kappa = %v", k)
	}
	// Chance-level agreement: kappa ~0. Predictions independent of truth.
	c2 := NewConfusion([]string{"a", "b"})
	for i := 0; i < 50; i++ {
		c2.Record("a", "a")
		c2.Record("a", "b")
		c2.Record("b", "a")
		c2.Record("b", "b")
	}
	if k := c2.Kappa(); math.Abs(k) > 1e-12 {
		t.Errorf("chance kappa = %v", k)
	}
	// Empty matrix.
	if k := NewConfusion([]string{"a"}).Kappa(); k != 0 {
		t.Errorf("empty kappa = %v", k)
	}
}

func TestPerClassMetrics(t *testing.T) {
	c := NewConfusion([]string{"neg", "pos"})
	// pos: tp=8, fn=2; neg: tn=9, fp=1 (one neg predicted pos).
	for i := 0; i < 8; i++ {
		c.Record("pos", "pos")
	}
	c.Record("pos", "neg")
	c.Record("pos", "neg")
	for i := 0; i < 9; i++ {
		c.Record("neg", "neg")
	}
	c.Record("neg", "pos")
	for _, m := range c.PerClass() {
		if m.Class != "pos" {
			continue
		}
		if math.Abs(m.Recall-0.8) > 1e-12 {
			t.Errorf("pos recall = %v, want 0.8", m.Recall)
		}
		if math.Abs(m.Precision-8.0/9) > 1e-12 {
			t.Errorf("pos precision = %v, want 8/9", m.Precision)
		}
		if m.Support != 10 {
			t.Errorf("pos support = %d", m.Support)
		}
	}
	if !strings.Contains(c.DetailedString(), "Kappa") {
		t.Errorf("DetailedString missing kappa")
	}
}
