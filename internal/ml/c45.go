package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fsml/internal/dataset"
)

// C45Config tunes the decision-tree learner. The defaults match the
// Weka J48 defaults the paper used: minimum 2 instances per leaf and
// pessimistic pruning at confidence 0.25.
type C45Config struct {
	// MinLeaf is the minimum number of training instances per leaf.
	MinLeaf int
	// Confidence is the C4.5 pruning confidence factor; values <= 0 or
	// >= 1 disable pruning.
	Confidence float64
}

// DefaultC45 returns the J48-default configuration.
func DefaultC45() C45Config { return C45Config{MinLeaf: 2, Confidence: 0.25} }

// C45 is the decision-tree Trainer.
type C45 struct {
	cfg C45Config
}

// NewC45 returns a C4.5 trainer with the given configuration.
func NewC45(cfg C45Config) *C45 {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &C45{cfg: cfg}
}

// Name implements Trainer.
func (c *C45) Name() string { return "C4.5" }

// Node is one decision-tree node. Exported fields make the tree
// JSON-serializable, which is how trained models are saved and shipped.
type Node struct {
	// Leaf marks terminal nodes; Class is their prediction.
	Leaf  bool   `json:"leaf"`
	Class string `json:"class,omitempty"`
	// Attr indexes the split attribute; instances with
	// features[Attr] <= Threshold descend Left, the rest Right.
	Attr      int     `json:"attr,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Left      *Node   `json:"left,omitempty"`
	Right     *Node   `json:"right,omitempty"`
	// N and E are the training instance and error counts used by the
	// pruning estimate and the Weka-style rendering "(N/E)".
	N float64 `json:"n"`
	E float64 `json:"e"`
}

// Tree is a trained C4.5 model in its training form: it is grown,
// pruned, rendered and serialized, but never walked to predict — Compile
// turns it into the FlatTree every prediction goes through.
type Tree struct {
	Attrs []string `json:"attrs"`
	Root  *Node    `json:"root"`
}

// Leaves returns the number of leaf nodes (Figure 2 reports 6).
func (t *Tree) Leaves() int { return t.Root.leaves() }

// Size returns the total node count (Figure 2 reports 11).
func (t *Tree) Size() int { return t.Root.size() }

// UsedAttrs returns the indices of attributes the tree actually tests,
// in first-use (pre-order) order. The paper's tree uses only 4 of 15.
func (t *Tree) UsedAttrs() []int {
	seen := map[int]bool{}
	var order []int
	var walk func(*Node)
	walk = func(n *Node) {
		if n == nil || n.Leaf {
			return
		}
		if !seen[n.Attr] {
			seen[n.Attr] = true
			order = append(order, n.Attr)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return order
}

func (n *Node) leaves() int {
	if n.Leaf {
		return 1
	}
	return n.Left.leaves() + n.Right.leaves()
}

func (n *Node) size() int {
	if n.Leaf {
		return 1
	}
	return 1 + n.Left.size() + n.Right.size()
}

// String renders the tree in Weka J48's text format.
func (t *Tree) String() string {
	var b strings.Builder
	t.Root.render(&b, t.Attrs, 0)
	fmt.Fprintf(&b, "\nNumber of Leaves  : %d\n\nSize of the tree : %d\n", t.Leaves(), t.Size())
	return b.String()
}

func (n *Node) render(b *strings.Builder, attrs []string, depth int) {
	if n.Leaf {
		// Rendered inline by the parent; a root-leaf degenerate tree:
		fmt.Fprintf(b, ": %s (%.1f/%.1f)\n", n.Class, n.N, n.E)
		return
	}
	for _, side := range []struct {
		op    string
		child *Node
	}{{"<=", n.Left}, {">", n.Right}} {
		for i := 0; i < depth; i++ {
			b.WriteString("|   ")
		}
		fmt.Fprintf(b, "%s %s %.6g", attrs[n.Attr], side.op, n.Threshold)
		if side.child.Leaf {
			fmt.Fprintf(b, ": %s (%.1f/%.1f)\n", side.child.Class, side.child.N, side.child.E)
		} else {
			b.WriteString("\n")
			side.child.render(b, attrs, depth+1)
		}
	}
}

// ---------------------------------------------------------------------------
// Training

// Train implements Trainer. The classifier it returns is the compiled
// FlatTree, so cross-validation walks the same form serving walks.
func (c *C45) Train(d *dataset.Dataset) (Classifier, error) {
	t, err := c.TrainTree(d)
	if err != nil {
		return nil, err
	}
	return Compile(t)
}

// TrainTree fits and (optionally) prunes a decision tree, returning the
// concrete type for callers that need structure access.
func (c *C45) TrainTree(d *dataset.Dataset) (*Tree, error) {
	if err := validateTrainable(d); err != nil {
		return nil, err
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	root := c.grow(d, idx)
	if c.cfg.Confidence > 0 && c.cfg.Confidence < 1 {
		c.prune(root)
	}
	attrs := make([]string, len(d.Attrs))
	copy(attrs, d.Attrs)
	return &Tree{Attrs: attrs, Root: root}, nil
}

// grow builds the unpruned tree over the given instance indices.
func (c *C45) grow(d *dataset.Dataset, idx []int) *Node {
	n := c.leaf(d, idx)
	if len(idx) < 2*c.cfg.MinLeaf || n.E == 0 {
		return n
	}
	attr, thr, ok := c.bestSplit(d, idx)
	if !ok {
		return n
	}
	var left, right []int
	for _, i := range idx {
		if d.Instances[i].Features[attr] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < c.cfg.MinLeaf || len(right) < c.cfg.MinLeaf {
		return n
	}
	// Interior nodes keep their majority class and error stats: pruning
	// needs them to evaluate (and perform) collapse-to-leaf.
	n.Leaf = false
	n.Attr = attr
	n.Threshold = thr
	n.Left = c.grow(d, left)
	n.Right = c.grow(d, right)
	return n
}

// leaf builds a majority-class leaf over idx.
func (c *C45) leaf(d *dataset.Dataset, idx []int) *Node {
	label := majorityLabel(d, idx)
	var errs float64
	for _, i := range idx {
		if d.Instances[i].Label != label {
			errs++
		}
	}
	return &Node{Leaf: true, Class: label, N: float64(len(idx)), E: errs}
}

// bestSplit scores every (attribute, threshold) candidate by information
// gain and picks, C4.5-style, the best gain ratio among candidates whose
// gain is at least the average positive gain. Gains carry the MDL-style
// correction log2(candidates)/N that C4.5 release 8 applies to continuous
// attributes.
func (c *C45) bestSplit(d *dataset.Dataset, idx []int) (attr int, thr float64, ok bool) {
	type cand struct {
		attr  int
		thr   float64
		gain  float64
		ratio float64
	}
	total := float64(len(idx))
	baseEnt := entropyOf(d, idx)
	var cands []cand
	type fv struct {
		v     float64
		label string
	}
	vals := make([]fv, 0, len(idx))
	for a := range d.Attrs {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, fv{d.Instances[i].Features[a], d.Instances[i].Label})
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		if vals[0].v == vals[len(vals)-1].v {
			continue // constant attribute
		}
		// Count distinct threshold positions for the MDL penalty.
		distinct := 0
		for i := 1; i < len(vals); i++ {
			if vals[i].v != vals[i-1].v {
				distinct++
			}
		}
		penalty := math.Log2(float64(distinct)) / total
		leftCounts := map[string]float64{}
		rightCounts := map[string]float64{}
		for _, x := range vals {
			rightCounts[x.label]++
		}
		nl := 0.0
		for i := 0; i < len(vals)-1; i++ {
			leftCounts[vals[i].label]++
			rightCounts[vals[i].label]--
			nl++
			if vals[i].v == vals[i+1].v {
				continue
			}
			nr := total - nl
			if nl < float64(c.cfg.MinLeaf) || nr < float64(c.cfg.MinLeaf) {
				continue
			}
			gain := baseEnt - (nl/total)*entropyCounts(leftCounts, nl) - (nr/total)*entropyCounts(rightCounts, nr)
			gain -= penalty
			if gain <= 0 {
				continue
			}
			splitInfo := entropyCounts(map[string]float64{"l": nl, "r": nr}, total)
			if splitInfo <= 0 {
				continue
			}
			mid := (vals[i].v + vals[i+1].v) / 2
			cands = append(cands, cand{attr: a, thr: mid, gain: gain, ratio: gain / splitInfo})
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	var sum float64
	for _, cd := range cands {
		sum += cd.gain
	}
	avg := sum / float64(len(cands))
	best := -1
	for i, cd := range cands {
		if cd.gain+1e-12 < avg {
			continue
		}
		if best == -1 || cd.ratio > cands[best].ratio+1e-12 ||
			(math.Abs(cd.ratio-cands[best].ratio) <= 1e-12 && cd.attr < cands[best].attr) {
			best = i
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return cands[best].attr, cands[best].thr, true
}

func entropyOf(d *dataset.Dataset, idx []int) float64 {
	counts := map[string]float64{}
	for _, i := range idx {
		counts[d.Instances[i].Label]++
	}
	return entropyCounts(counts, float64(len(idx)))
}

func entropyCounts(counts map[string]float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	e := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// ---------------------------------------------------------------------------
// Pessimistic pruning (C4.5 error-based, as in Weka J48 without subtree
// raising)

// prune collapses subtrees whose pessimistic error estimate is no better
// than that of a single leaf. It returns the estimated errors of the
// (possibly collapsed) node.
func (c *C45) prune(n *Node) float64 {
	if n.Leaf {
		return n.E + addErrs(n.N, n.E, c.cfg.Confidence)
	}
	subtree := c.prune(n.Left) + c.prune(n.Right)
	asLeaf := n.E + addErrs(n.N, n.E, c.cfg.Confidence)
	if asLeaf <= subtree+0.1 {
		// Collapse: the stored majority stats already describe the leaf.
		n.Leaf = true
		n.Left, n.Right = nil, nil
		n.Attr, n.Threshold = 0, 0
		return asLeaf
	}
	return subtree
}

// addErrs is C4.5's pessimistic error increment: the extra errors implied
// by the upper confidence bound of a binomial with e errors in N trials,
// at confidence cf. This is a faithful port of the classic formula (as in
// Weka's Stats.addErrs).
func addErrs(N, e, cf float64) float64 {
	if cf >= 1 || N <= 0 {
		return 0
	}
	if e < 1 {
		// Base case: zero (or fractional) observed errors.
		base := N * (1 - math.Pow(cf, 1/N))
		if e == 0 {
			return base
		}
		return base + e*(addErrs(N, 1, cf)-base)
	}
	if e+0.5 >= N {
		return math.Max(N-e, 0)
	}
	z := normalInverse(1 - cf)
	f := (e + 0.5) / N
	r := (f + z*z/(2*N) + z*math.Sqrt(f/N-f*f/N+z*z/(4*N*N))) / (1 + z*z/N)
	return r*N - e
}

// normalInverse is Acklam's approximation of the standard normal
// quantile function, accurate to ~1e-9 over (0,1).
func normalInverse(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("ml: normalInverse(%v) out of (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	cc := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
}
