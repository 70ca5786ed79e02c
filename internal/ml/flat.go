package ml

// The compiled inference form of a trained decision tree, and the only
// one that predicts. The pointer Tree is the right shape for training,
// pruning, rendering, and JSON serialization, but the serve hot path
// walks a model millions of times per second, and every pointer step
// chases a heap pointer and every verdict is a Go string. FlatTree
// applies internal/mem's data-layout lesson to the model itself: all
// nodes live in one contiguous slice in preorder (the left child is
// always the next element, so the common "<=" branch never jumps),
// children are int32 indices instead of pointers, and classes are
// interned to dense int32 ids against a sorted table so a verdict is an
// integer until the caller asks for the name.
//
// Compile is also the one structural validator of a tree: every model
// that reaches a predictor — trained, decoded from disk, or uploaded to
// the server — went through it.
//
// Equivalence contract: Predict and PredictPartial return exactly what
// the textbook recursive walk over the pointer tree returns — including
// the floating-point confidence, which is why the partial walk recurses
// left-then-right and the class-weight totals accumulate in sorted
// label order (see PredictPartial). The test-side pointer walker in
// oracle_test.go is the reference; FuzzFlatVsPointerTree pins it.

import (
	"fmt"
	"math"
	"sort"
)

// FlatNode is one node of a flattened tree. Interior nodes carry the
// split and child indices; leaves are marked by Attr == flatLeaf and
// carry the interned class. N is the training population, kept because
// the missing-value blend of PredictPartial weights children by it.
type FlatNode struct {
	// Attr is the split attribute index, or flatLeaf for leaves.
	Attr int32
	// Class is the interned class id of a leaf (index into Classes).
	Class int32
	// Left and Right are child indices into Nodes. Preorder layout
	// guarantees Left == own index + 1; it is stored anyway so the walk
	// needs no arithmetic assumptions.
	Left, Right int32
	// Threshold splits instances: features[Attr] <= Threshold goes Left.
	Threshold float64
	// N is the node's training instance count (PredictPartial blending).
	N float64
}

// flatLeaf marks leaf nodes in FlatNode.Attr.
const flatLeaf = int32(-1)

// IsLeaf reports whether the node is terminal.
func (n *FlatNode) IsLeaf() bool { return n.Attr == flatLeaf }

// FlatTree is the contiguous inference form of a Tree. Build one with
// Compile; the zero value is not usable. A FlatTree is immutable after
// Compile and safe for concurrent use.
type FlatTree struct {
	// Attrs is the attribute list, identical to the source Tree's.
	Attrs []string
	// Classes is the interned class table, sorted lexicographically.
	// Class ids index it; the sort order IS the tie-break order of
	// PredictPartial (the smallest label wins an exact tie).
	Classes []string
	// Nodes holds the tree in preorder; the root is Nodes[0].
	Nodes []FlatNode
}

var _ Classifier = (*FlatTree)(nil)

// Compile flattens a trained pointer tree, validating its structure on
// the way: a root, two children under every interior node, a class on
// every leaf, split attributes in range, and training populations that
// keep PredictPartial's blend finite — no negative or NaN N, and no
// interior node whose children's N sum overflows (a blend weighted by
// an infinite total yields 0/0, a NaN confidence). The source tree is
// read, never retained; recompiling yields an identical FlatTree.
func Compile(t *Tree) (*FlatTree, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("ml: cannot compile a tree without a root")
	}
	// Intern classes in sorted order so id order == label order.
	seen := map[string]bool{}
	var collect func(*Node) error
	collect = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("ml: cannot compile a tree with a nil node")
		}
		if !(n.N >= 0) {
			return fmt.Errorf("ml: cannot compile a node population of %v", n.N)
		}
		if n.Leaf {
			if n.Class == "" {
				return fmt.Errorf("ml: cannot compile a leaf with an empty class")
			}
			seen[n.Class] = true
			return nil
		}
		if n.Attr < 0 || n.Attr >= len(t.Attrs) {
			return fmt.Errorf("ml: cannot compile split attribute %d (have %d attrs)", n.Attr, len(t.Attrs))
		}
		if err := collect(n.Left); err != nil {
			return err
		}
		if err := collect(n.Right); err != nil {
			return err
		}
		if math.IsInf(n.Left.N+n.Right.N, 0) {
			return fmt.Errorf("ml: cannot compile children populations %v + %v (not finite)", n.Left.N, n.Right.N)
		}
		return nil
	}
	if err := collect(t.Root); err != nil {
		return nil, err
	}
	classes := make([]string, 0, len(seen))
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	classID := make(map[string]int32, len(classes))
	for i, c := range classes {
		classID[c] = int32(i)
	}

	attrs := make([]string, len(t.Attrs))
	copy(attrs, t.Attrs)
	f := &FlatTree{Attrs: attrs, Classes: classes, Nodes: make([]FlatNode, 0, t.Size())}
	var flatten func(n *Node) int32
	flatten = func(n *Node) int32 {
		at := int32(len(f.Nodes))
		f.Nodes = append(f.Nodes, FlatNode{N: n.N})
		if n.Leaf {
			f.Nodes[at].Attr = flatLeaf
			f.Nodes[at].Class = classID[n.Class]
			return at
		}
		f.Nodes[at].Attr = int32(n.Attr)
		f.Nodes[at].Threshold = n.Threshold
		f.Nodes[at].Left = flatten(n.Left)
		f.Nodes[at].Right = flatten(n.Right)
		return at
	}
	flatten(t.Root)
	return f, nil
}

// Class returns the name behind an interned class id.
func (f *FlatTree) Class(id int32) string { return f.Classes[id] }

// PredictID classifies a feature vector and returns the interned class
// id. Zero allocations; the hot loop is index chasing over one slice.
func (f *FlatTree) PredictID(features []float64) int32 {
	nodes := f.Nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.Attr < 0 {
			return n.Class
		}
		if features[n.Attr] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Predict implements Classifier. The returned string is interned (a
// Classes entry), so the call itself allocates nothing.
func (f *FlatTree) Predict(features []float64) string {
	return f.Classes[f.PredictID(features)]
}

// ClassifyBatch runs a whole micro-batch through the tree in one
// columnar pass: cols[a][i] is attribute a of vector i, and out[i]
// receives vector i's interned class id. Every column and out must
// have equal length (the batch size) and cols must cover len(Attrs)
// columns; the caller owns the buffers, so the batch performs zero
// allocations regardless of size — the contract BenchmarkClassifyBatch
// pins. Verdicts are exactly Predict's, vector by vector.
func (f *FlatTree) ClassifyBatch(cols [][]float64, out []int32) error {
	if len(cols) < len(f.Attrs) {
		return fmt.Errorf("ml: batch has %d columns, tree needs %d", len(cols), len(f.Attrs))
	}
	for a := range f.Attrs {
		if len(cols[a]) != len(out) {
			return fmt.Errorf("ml: column %d has %d rows, out has %d", a, len(cols[a]), len(out))
		}
	}
	nodes := f.Nodes
	for i := range out {
		at := int32(0)
		for {
			n := &nodes[at]
			if n.Attr < 0 {
				out[i] = n.Class
				break
			}
			if cols[n.Attr][i] <= n.Threshold {
				at = n.Left
			} else {
				at = n.Right
			}
		}
	}
	return nil
}

// PredictPartial classifies a feature vector in which some attribute
// values are untrustworthy: missing[i] true means features[i] must not
// be consulted (a flagged counter read — see pmu.CountFlag). At a split
// on a missing attribute the prediction descends BOTH children, each
// weighted by its training population (evenly when neither child
// carries one) — C4.5's classic missing-value treatment — and the
// returned confidence is the winning class's share of the total leaf
// weight. When no split touches a missing attribute the result agrees
// with Predict at confidence 1.
//
// Leaf ties are pinned: class weights accumulate in left-then-right DFS
// order, the confidence denominator sums them in ascending label order,
// and when two classes gather exactly equal weight the
// lexicographically smallest label wins — the same bits on every call
// (see TestPredictPartialLeafTieRule).
func (f *FlatTree) PredictPartial(features []float64, missing []bool) (class string, confidence float64) {
	id, conf := f.PredictPartialInto(features, missing, make([]float64, len(f.Classes)))
	return f.Classes[id], conf
}

// PredictPartialInto is PredictPartial with a caller-owned scratch
// accumulator (len(Classes), will be zeroed), for hot paths that want
// the degraded route allocation-free. It returns the interned id.
func (f *FlatTree) PredictPartialInto(features []float64, missing []bool, scratch []float64) (id int32, confidence float64) {
	for i := range scratch {
		scratch[i] = 0
	}
	f.walkPartial(0, 1, features, missing, scratch)
	// Total in ascending id order == sorted-label order. Unreached
	// classes hold exactly 0 and change neither the sum nor the argmax
	// (some class always carries positive weight).
	total := 0.0
	for _, w := range scratch {
		total += w
	}
	best, bestW := int32(0), -1.0
	for i, w := range scratch {
		if w > bestW {
			best, bestW = int32(i), w
		}
	}
	return best, bestW / total
}

// walkPartial recurses left-then-right, which fixes the floating-point
// accumulation order and therefore every confidence bit.
func (f *FlatTree) walkPartial(at int32, w float64, features []float64, missing []bool, acc []float64) {
	n := &f.Nodes[at]
	if n.Attr < 0 {
		acc[n.Class] += w
		return
	}
	if int(n.Attr) < len(missing) && missing[n.Attr] {
		l, r := &f.Nodes[n.Left], &f.Nodes[n.Right]
		if total := l.N + r.N; total > 0 {
			f.walkPartial(n.Left, w*l.N/total, features, missing, acc)
			f.walkPartial(n.Right, w*r.N/total, features, missing, acc)
		} else {
			// A hand-built tree without training stats: split evenly.
			f.walkPartial(n.Left, w/2, features, missing, acc)
			f.walkPartial(n.Right, w/2, features, missing, acc)
		}
		return
	}
	if features[n.Attr] <= n.Threshold {
		f.walkPartial(n.Left, w, features, missing, acc)
	} else {
		f.walkPartial(n.Right, w, features, missing, acc)
	}
}
