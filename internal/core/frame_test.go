package core

import (
	"errors"
	"testing"

	"fsml/internal/ml"
	"fsml/internal/pmu"
)

// TestClassifyVectorsMatchesScalar asserts the columnar frame path
// returns exactly the scalar Classify verdict for every vector, under
// both the identity layout (names nil) and a shuffled-and-padded one.
func TestClassifyVectorsMatchesScalar(t *testing.T) {
	det := projTestDetector(t)
	ft := det.FlatTree()
	if ft == nil {
		t.Fatal("trained detector has no flat tree")
	}

	grid := []float64{0, 0.015, 0.04, 0.3, 0.55, 0.8}
	t.Run("identity layout", func(t *testing.T) {
		width := len(ft.Attrs)
		var vecs []float64
		for _, a := range grid {
			for _, b := range grid {
				vecs = append(vecs, a, b)
			}
		}
		n := len(vecs) / width
		classes := make([]string, n)
		if err := det.ClassifyVectors(nil, vecs, width, classes); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s := pmu.Sample{Names: ft.Attrs, Counts: vecs[i*width : (i+1)*width], Instructions: 1}
			want, err := det.Classify(s)
			if err != nil {
				t.Fatal(err)
			}
			if classes[i] != want {
				t.Errorf("vector %d: frame %q != scalar %q", i, classes[i], want)
			}
		}
	})

	t.Run("projected layout", func(t *testing.T) {
		names := []string{"EV_PAD0", "EV_B", "EV_PAD1", "EV_A"}
		width := len(names)
		var vecs []float64
		for _, a := range grid {
			for _, b := range grid {
				vecs = append(vecs, 3, b, 7, a)
			}
		}
		n := len(vecs) / width
		classes := make([]string, n)
		if err := det.ClassifyVectors(names, vecs, width, classes); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s := pmu.Sample{Names: names, Counts: vecs[i*width : (i+1)*width], Instructions: 1}
			want, err := det.Classify(s)
			if err != nil {
				t.Fatal(err)
			}
			if classes[i] != want {
				t.Errorf("vector %d: frame %q != scalar %q", i, classes[i], want)
			}
		}
	})

	t.Run("shape violations are typed errors", func(t *testing.T) {
		out := make([]string, 2)
		if err := det.ClassifyVectors(nil, []float64{1, 2, 3}, 2, out); err == nil {
			t.Error("ragged frame accepted")
		}
		if err := det.ClassifyVectors(nil, []float64{1, 2, 3, 4}, 0, out); err == nil {
			t.Error("zero width accepted")
		}
		if err := det.ClassifyVectors([]string{"EV_A"}, []float64{1, 2, 3, 4}, 2, out); err == nil {
			t.Error("names/width mismatch accepted")
		}
		if err := det.ClassifyVectors([]string{"EV_A", "EV_X"}, []float64{1, 2, 3, 4}, 2, out); err == nil {
			t.Error("unknown event accepted")
		}
	})
}

// TestNewDetectorRejectsUncompilableTree pins the one constructor as
// the one gate: a tree that does not compile yields Compile's error, and
// a Detector assembled as a struct literal gets no lazy compile — every
// classification answers ErrNotCompiled.
func TestNewDetectorRejectsUncompilableTree(t *testing.T) {
	leaf := func(class string, n float64) *ml.Node { return &ml.Node{Leaf: true, Class: class, N: n} }
	for name, tree := range map[string]*ml.Tree{
		"nil tree":      nil,
		"overflowing N": {Attrs: []string{"EV_A"}, Root: &ml.Node{Attr: 0, Left: leaf("good", 1e308), Right: leaf("bad-fs", 1e308)}},
	} {
		if _, err := NewDetector(tree, nil); err == nil {
			t.Errorf("%s: NewDetector accepted it", name)
		}
	}

	tree := &ml.Tree{
		Attrs: []string{"EV_A"},
		Root:  &ml.Node{Attr: 0, Threshold: 0.5, N: 4, Left: leaf("good", 2), Right: leaf("bad-fs", 2)},
	}
	s := pmu.Sample{Names: []string{"EV_A"}, Counts: []float64{900}, Instructions: 1000}
	literal := &Detector{Tree: tree}
	if _, err := literal.Classify(s); !errors.Is(err, ErrNotCompiled) {
		t.Errorf("literal Classify error = %v, want ErrNotCompiled", err)
	}
	if _, err := literal.ClassifyRobust(s); !errors.Is(err, ErrNotCompiled) {
		t.Errorf("literal ClassifyRobust error = %v, want ErrNotCompiled", err)
	}
	if err := literal.ClassifyVectors(nil, []float64{0.9}, 1, make([]string, 1)); !errors.Is(err, ErrNotCompiled) {
		t.Errorf("literal ClassifyVectors error = %v, want ErrNotCompiled", err)
	}
	if literal.FlatTree() != nil {
		t.Error("literal detector compiled lazily")
	}
	det, err := NewDetector(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if class, err := det.Classify(s); err != nil || class != "bad-fs" {
		t.Fatalf("Classify = %q, %v; want bad-fs", class, err)
	}
}
