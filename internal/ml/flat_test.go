package ml

// The differential harness for the compiled inference form: every test
// here asserts FlatTree agrees with the pointer-tree oracle
// (oracle_test.go) bit for bit — classes, confidences, and batch
// verdicts — over trained trees, hand-built degenerate trees,
// fuzz-generated random ones, and the repo's serialized detectors.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsml/internal/dataset"
)

// flatTestTree trains a small three-class tree with enough structure
// that predictions take different paths.
func flatTestTree(tb testing.TB) *Tree {
	tb.Helper()
	d := dataset.New([]string{"EV_A", "EV_B", "EV_C"})
	add := func(label string, a, b, c float64) {
		if err := d.Add(dataset.Instance{Features: []float64{a, b, c}, Label: label}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		f := float64(i) * 0.013
		add("bad-fs", 0.5+f, 0.05+f/2, 0.2+f)
		add("bad-ma", 0.01+f/10, 0.6+f, 0.3-f)
		add("good", 0.02+f/10, 0.03+f/10, 0.1+f/3)
	}
	tree, err := NewC45(DefaultC45()).TrainTree(d)
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// treeGen deterministically builds trees, vectors, and missing masks
// from a byte stream — the shared generator of the property test and
// the fuzz target. Exhausted streams read zero.
type treeGen struct {
	data []byte
	at   int
}

func (g *treeGen) byte() byte {
	if g.at >= len(g.data) {
		return 0
	}
	b := g.data[g.at]
	g.at++
	return b
}

func (g *treeGen) f64() float64 { return float64(g.byte()) / 16 }

var genClasses = []string{"alpha", "bravo", "charlie", "delta"}

// genNode builds a random subtree: depth-bounded, leaf-biased as depth
// grows, with occasional zero-population nodes to hit the hand-built
// even-split blend path.
func (g *treeGen) genNode(nAttrs, depth int) *Node {
	if depth >= 5 || g.byte()%4 == 0 {
		n := float64(g.byte() % 8) // 0 population exercises the w/2 blend
		return &Node{Leaf: true, Class: genClasses[g.byte()%4], N: n, E: float64(g.byte()%3) / 2}
	}
	return &Node{
		Attr:      int(g.byte()) % nAttrs,
		Threshold: g.f64(),
		N:         float64(g.byte() % 16),
		Left:      g.genNode(nAttrs, depth+1),
		Right:     g.genNode(nAttrs, depth+1),
	}
}

func (g *treeGen) genTree() *Tree {
	nAttrs := 1 + int(g.byte())%6
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = string(rune('A' + i))
	}
	return &Tree{Attrs: attrs, Root: g.genNode(nAttrs, 0)}
}

func (g *treeGen) genVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.f64()
	}
	return v
}

func (g *treeGen) genMissing(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = g.byte()%3 == 0
	}
	return m
}

// assertFlatMatches compares the two forms on one input, exactly.
func assertFlatMatches(t testing.TB, tree *Tree, flat *FlatTree, fv []float64, missing []bool) {
	t.Helper()
	if got, want := flat.Predict(fv), oraclePredict(tree, fv); got != want {
		t.Fatalf("Predict(%v): flat %q != pointer %q\ntree:\n%s", fv, got, want, tree)
	}
	gc, gconf := flat.PredictPartial(fv, missing)
	wc, wconf := oraclePredictPartial(tree, fv, missing)
	if gc != wc {
		t.Fatalf("PredictPartial(%v, %v): flat class %q != pointer %q\ntree:\n%s", fv, missing, gc, wc, tree)
	}
	if math.Float64bits(gconf) != math.Float64bits(wconf) {
		t.Fatalf("PredictPartial(%v, %v): flat confidence %v (bits %x) != pointer %v (bits %x)",
			fv, missing, gconf, math.Float64bits(gconf), wconf, math.Float64bits(wconf))
	}
}

// TestFlatVsPointerTrained sweeps a grid of vectors and missing masks
// through a trained tree in both forms.
func TestFlatVsPointerTrained(t *testing.T) {
	tree := flatTestTree(t)
	flat, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Nodes) != tree.Size() {
		t.Fatalf("flat has %d nodes, tree size is %d", len(flat.Nodes), tree.Size())
	}
	grid := []float64{0, 0.01, 0.05, 0.2, 0.5, 0.62, 1}
	masks := [][]bool{
		nil,
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{true, true, false},
		{true, true, true},
	}
	for _, a := range grid {
		for _, b := range grid {
			for _, c := range grid {
				fv := []float64{a, b, c}
				for _, m := range masks {
					assertFlatMatches(t, tree, flat, fv, m)
				}
			}
		}
	}
}

// TestFlatVsPointerRandom is the table-driven property test: seeded
// byte streams drive the shared generator through degenerate shapes
// (root leaves, zero-population blends, constant thresholds) and
// compare both forms on randomized vectors and masks — the same
// property the fuzz target explores open-endedly.
func TestFlatVsPointerRandom(t *testing.T) {
	seeds := [][]byte{
		{},
		{0},
		{7, 7, 7, 7, 7, 7, 7, 7},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 250, 0, 9},
		{200, 1, 1, 90, 3, 17, 44, 44, 44, 8, 0, 255, 13, 21, 34, 55, 89, 144, 233, 2, 2, 2},
		{255, 254, 253, 252, 251, 250, 0, 1, 2, 3, 100, 101, 102, 103, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	for i, seed := range seeds {
		g := &treeGen{data: seed}
		tree := g.genTree()
		flat, err := Compile(tree)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		for k := 0; k < 16; k++ {
			fv := g.genVector(len(tree.Attrs))
			assertFlatMatches(t, tree, flat, fv, nil)
			assertFlatMatches(t, tree, flat, fv, g.genMissing(len(tree.Attrs)))
		}
	}
}

// TestFlatVsPointerTestdataDetectors is the trained-model leg of the
// differential harness: every serialized detector under the repo's
// testdata/ compiles and agrees with the pointer-tree oracle — classes
// and confidence bits — over a dense grid of vectors and every
// single-attribute missing mask.
func TestFlatVsPointerTestdataDetectors(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// testdata/ also holds non-detector goldens (e.g. rendered perf
		// verdicts); only files carrying the detector format tag (current
		// or legacy) are serialized detectors.
		var model struct {
			Format string `json:"format"`
			Tree   *Tree  `json:"tree"`
		}
		if json.Unmarshal(blob, &model) != nil || !strings.HasPrefix(model.Format, "fsml-detector") {
			continue
		}
		found++
		t.Run(filepath.Base(path), func(t *testing.T) {
			tree := model.Tree
			flat, err := Compile(tree)
			if err != nil {
				t.Fatal(err)
			}
			nAttrs := len(tree.Attrs)
			// The tree consults few attributes; vary those densely and
			// the rest not at all so the grid stays tractable.
			used := map[int]bool{}
			masks := [][]bool{make([]bool, nAttrs)} // all present
			for _, a := range tree.UsedAttrs() {
				used[a] = true
				m := make([]bool, nAttrs)
				m[a] = true
				masks = append(masks, m)
			}
			all := make([]bool, nAttrs)
			for i := range all {
				all[i] = true
			}
			masks = append(masks, all)
			dense := []float64{0, 0.001, 0.004, 0.01, 0.03, 0.1, 0.5}
			fv := make([]float64, nAttrs)
			checked := 0
			var sweep func(attrIdx int)
			sweep = func(attrIdx int) {
				if attrIdx == nAttrs {
					for _, m := range masks {
						assertFlatMatches(t, tree, flat, fv, m)
					}
					checked++
					return
				}
				if !used[attrIdx] {
					fv[attrIdx] = 0.02
					sweep(attrIdx + 1)
					return
				}
				for _, v := range dense {
					fv[attrIdx] = v
					sweep(attrIdx + 1)
				}
			}
			sweep(0)
			t.Logf("%s: %d attrs (%d consulted), %d vectors x %d masks agree",
				filepath.Base(path), nAttrs, len(used), checked, len(masks))
		})
	}
	if found == 0 {
		t.Fatal("no serialized detectors under testdata/")
	}
}

// FuzzFlatVsPointerTree is the open-ended differential harness: any
// byte string is a (tree, vector, mask) triple, and the two forms must
// agree exactly — class strings and confidence bits.
func FuzzFlatVsPointerTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 200, 17, 4, 4, 4, 90, 0, 0, 255, 12})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255, 0, 255})
	f.Add([]byte{42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeGen{data: data}
		tree := g.genTree()
		flat, err := Compile(tree)
		if err != nil {
			t.Fatalf("generated tree failed to compile: %v", err)
		}
		fv := g.genVector(len(tree.Attrs))
		assertFlatMatches(t, tree, flat, fv, nil)
		assertFlatMatches(t, tree, flat, fv, g.genMissing(len(tree.Attrs)))
	})
}

// TestClassifyBatchMatchesPredict runs a batch columnarly and asserts
// each verdict equals the scalar path, and that the batch performs
// zero allocations — the hot-path contract the serve frame endpoint
// relies on.
func TestClassifyBatchMatchesPredict(t *testing.T) {
	tree := flatTestTree(t)
	flat, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	g := &treeGen{data: []byte{9, 18, 27, 36, 45, 54, 63, 72, 81, 90}}
	cols := make([][]float64, len(flat.Attrs))
	for a := range cols {
		cols[a] = make([]float64, n)
		for i := range cols[a] {
			cols[a][i] = g.f64() * float64(i%7)
		}
	}
	out := make([]int32, n)
	allocs := testing.AllocsPerRun(10, func() {
		if err := flat.ClassifyBatch(cols, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ClassifyBatch allocates %.1f objects per batch, want 0", allocs)
	}
	fv := make([]float64, len(flat.Attrs))
	for i := 0; i < n; i++ {
		for a := range cols {
			fv[a] = cols[a][i]
		}
		if want := flat.PredictID(fv); out[i] != want {
			t.Errorf("row %d: batch id %d != scalar id %d", i, out[i], want)
		}
		if wantClass := oraclePredict(tree, fv); flat.Class(out[i]) != wantClass {
			t.Errorf("row %d: batch class %q != pointer %q", i, flat.Class(out[i]), wantClass)
		}
	}
	// Shape violations are typed errors, not panics.
	if err := flat.ClassifyBatch(cols[:1], out); err == nil {
		t.Error("short column set accepted")
	}
	if err := flat.ClassifyBatch(cols, out[:n-1]); err == nil {
		t.Error("mismatched out length accepted")
	}
}

// TestPredictPartialLeafTieRule pins the documented tie-break: two
// classes gathering exactly equal weight resolve to the smaller label
// at confidence 0.5, in both forms. The tree splits evenly on a
// missing attribute into two equal-population leaves.
func TestPredictPartialLeafTieRule(t *testing.T) {
	tree := &Tree{
		Attrs: []string{"X"},
		Root: &Node{
			Attr: 0, Threshold: 0.5, N: 8,
			Left:  &Node{Leaf: true, Class: "zulu", N: 4},
			Right: &Node{Leaf: true, Class: "alpha", N: 4},
		},
	}
	flat, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	fv := []float64{0.9}
	missing := []bool{true}
	for _, form := range []struct {
		name    string
		predict func([]float64, []bool) (string, float64)
	}{
		{"pointer", func(fv []float64, m []bool) (string, float64) { return oraclePredictPartial(tree, fv, m) }},
		{"flat", flat.PredictPartial},
	} {
		class, conf := form.predict(fv, missing)
		if class != "alpha" {
			t.Errorf("%s: tie resolved to %q, want the smaller label alpha", form.name, class)
		}
		if conf != 0.5 {
			t.Errorf("%s: tie confidence %v, want 0.5", form.name, conf)
		}
	}
	// Zero-population children take the documented even-split blend.
	tree.Root.Left.N, tree.Root.Right.N = 0, 0
	flat2, err := Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	assertFlatMatches(t, tree, flat2, fv, missing)
}

// TestCompileRejectsMalformed pins typed failures for shapes Compile
// must not accept. Compile is the only structural check a serialized
// model gets; TestDecodeTreeRejectsGarbage covers the JSON-decoded shapes.
func TestCompileRejectsMalformed(t *testing.T) {
	split := func(left, right *Node) *Tree {
		return &Tree{Attrs: []string{"A"}, Root: &Node{Attr: 0, N: 2, Left: left, Right: right}}
	}
	leaf := func(class string, n float64) *Node { return &Node{Leaf: true, Class: class, N: n} }
	cases := []struct {
		name string
		tree *Tree
	}{
		{"nil tree", nil},
		{"nil root", &Tree{Attrs: []string{"A"}}},
		{"empty leaf class", &Tree{Attrs: []string{"A"}, Root: &Node{Leaf: true}}},
		{"attr out of range", &Tree{Attrs: []string{"A"}, Root: &Node{
			Attr: 3, Left: leaf("x", 0), Right: leaf("y", 0),
		}}},
		{"negative attr", &Tree{Attrs: []string{"A"}, Root: &Node{
			Attr: -1, Left: leaf("x", 0), Right: leaf("y", 0),
		}}},
		{"nil child", split(leaf("x", 0), nil)},
		{"negative population", split(leaf("x", -1), leaf("y", 3))},
		{"NaN population", split(leaf("x", math.NaN()), leaf("y", 3))},
		{"negative interior population", &Tree{Attrs: []string{"A"}, Root: &Node{Attr: 0, N: -2, Left: leaf("x", 1), Right: leaf("y", 1)}}},
		{"children populations overflow", split(leaf("x", 1e308), leaf("y", 1e308))},
		{"infinite child population", split(leaf("x", math.Inf(1)), leaf("y", 1))},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.tree); err == nil {
			t.Errorf("%s: compiled without error", tc.name)
		}
	}
}

// TestDecodeTreeRejectsGarbage feeds serialized trees through the load
// path a model file takes (JSON decode, then Compile) and requires every
// malformed one to be refused at one step or the other.
func TestDecodeTreeRejectsGarbage(t *testing.T) {
	for i, blob := range []string{
		`not json`,
		`{"attrs":["x"]}`,                       // no root
		`{"attrs":["x"],"root":{"leaf":false}}`, // missing children
		`{"attrs":["x"],"root":{"leaf":true}}`,  // leaf w/o class
		`{"attrs":["x"],"root":{"leaf":false,"attr":5,"left":{"leaf":true,"class":"a"},"right":{"leaf":true,"class":"b"}}}`, // attr out of range
		`{"attrs":["x"],"root":{"leaf":false,"attr":0,"left":{"leaf":true,"class":"a","n":1e308},"right":{"leaf":true,"class":"b","n":1e308}}}`,
		`{"attrs":["x"],"root":{"leaf":false,"attr":0,"left":{"leaf":true,"class":"a","n":-4},"right":{"leaf":true,"class":"b","n":4}}}`,
	} {
		var tree Tree
		if err := json.Unmarshal([]byte(blob), &tree); err != nil {
			continue // rejected by the decoder itself
		}
		if _, err := Compile(&tree); err == nil {
			t.Errorf("case %d: decoded and compiled garbage: %s", i, blob)
		}
	}
}

// ---------------------------------------------------------------------------
// Benchmarks

// BenchmarkFlatPredict compares one classification through the
// pointer-tree oracle and the compiled form (see EXPERIMENTS.md). The "tiny" pair is
// the trained 3-attribute test tree (a handful of nodes, everything in
// L1, so layout barely matters); the "deep" pair walks a complete
// depth-14 tree (~32k nodes) where the pointer graph blows the cache
// and the contiguous array does not.
func BenchmarkFlatPredict(b *testing.B) {
	tree := flatTestTree(b)
	flat, err := Compile(tree)
	if err != nil {
		b.Fatal(err)
	}
	fv := []float64{0.55, 0.06, 0.2}
	b.Run("tiny/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if oraclePredict(tree, fv) == "" {
				b.Fatal("empty class")
			}
		}
	})
	b.Run("tiny/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if flat.PredictID(fv) < 0 {
				b.Fatal("bad id")
			}
		}
	})

	deep := deepTree(14, 8)
	deepFlat, err := Compile(deep)
	if err != nil {
		b.Fatal(err)
	}
	// 64 distinct vectors, so consecutive walks take different paths and
	// the benchmark measures the tree traversal, not one hot cached path.
	vecs := make([][]float64, 64)
	g := &treeGen{data: []byte("deep-bench-vectors")}
	for i := range vecs {
		v := make([]float64, 8)
		for j := range v {
			v[j] = g.f64()
		}
		vecs[i] = v
	}
	b.Run("deep/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if oraclePredict(deep, vecs[i%len(vecs)]) == "" {
				b.Fatal("empty class")
			}
		}
	})
	b.Run("deep/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if deepFlat.PredictID(vecs[i%len(vecs)]) < 0 {
				b.Fatal("bad id")
			}
		}
	})
}

// deepTree hand-builds a complete binary tree of the given depth over
// nAttrs attributes, with level-dependent thresholds so every walk
// traverses the full depth.
func deepTree(depth, nAttrs int) *Tree {
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("EV_%02d", i)
	}
	seq := 0
	var build func(level int, lo, hi float64) *Node
	build = func(level int, lo, hi float64) *Node {
		if level == depth {
			seq++
			return &Node{Leaf: true, Class: genClasses[seq%len(genClasses)], N: 4}
		}
		mid := (lo + hi) / 2
		return &Node{
			Attr:      level % nAttrs,
			Threshold: mid,
			N:         float64(int(1) << (depth - level)),
			Left:      build(level+1, lo, mid),
			Right:     build(level+1, mid, hi),
		}
	}
	return &Tree{Attrs: attrs, Root: build(0, 0, 1)}
}

// BenchmarkClassifyBatch measures the columnar batch walk; allocs/op
// must report 0 (caller-owned buffers, interned verdicts).
func BenchmarkClassifyBatch(b *testing.B) {
	tree := flatTestTree(b)
	flat, err := Compile(tree)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	cols := make([][]float64, len(flat.Attrs))
	for a := range cols {
		cols[a] = make([]float64, n)
		for i := range cols[a] {
			cols[a][i] = float64((i*7+a*3)%13) / 13
		}
	}
	out := make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flat.ClassifyBatch(cols, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vec")
}
