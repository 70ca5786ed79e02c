package ml

import (
	"fmt"
	"sort"

	"fsml/internal/dataset"
)

// This file holds the two classic "sanity baseline" classifiers from the
// Weka toolbox the paper's authors would have had on screen next to J48:
// OneR (a single-attribute rule set) and the decision stump (a one-split
// tree). Both are deliberately weak; their role in the ablation is to
// show how much of the problem a single event explains.

// DecisionStump trains a depth-1 C4.5 tree: the single best
// (attribute, threshold) split with majority leaves, compiled.
type DecisionStump struct{}

// Name implements Trainer.
func (DecisionStump) Name() string { return "DecisionStump" }

// Train implements Trainer.
func (DecisionStump) Train(d *dataset.Dataset) (Classifier, error) {
	if err := validateTrainable(d); err != nil {
		return nil, err
	}
	c := NewC45(C45Config{MinLeaf: 1, Confidence: 0})
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	attr, thr, ok := c.bestSplit(d, idx)
	root := c.leaf(d, idx)
	if ok {
		var left, right []int
		for _, i := range idx {
			if d.Instances[i].Features[attr] <= thr {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) > 0 && len(right) > 0 {
			root.Leaf = false
			root.Attr = attr
			root.Threshold = thr
			root.Left = c.leaf(d, left)
			root.Right = c.leaf(d, right)
		}
	}
	return Compile(&Tree{Attrs: d.Attrs, Root: root})
}

// OneR picks the single attribute whose discretized value ranges predict
// the class best on the training data (Holte's 1R algorithm with
// equal-frequency binning and a minimum bucket size).
type OneR struct {
	// Buckets is the discretization bucket count (default 6).
	Buckets int
}

// Name implements Trainer.
func (o OneR) Name() string { return "OneR" }

type oneRModel struct {
	attr       int
	cuts       []float64
	labels     []string // len(cuts)+1 interval labels
	defaultLbl string
}

var _ Classifier = (*oneRModel)(nil)

// Train implements Trainer.
func (o OneR) Train(d *dataset.Dataset) (Classifier, error) {
	if err := validateTrainable(d); err != nil {
		return nil, err
	}
	buckets := o.Buckets
	if buckets <= 1 {
		buckets = 6
	}
	bestErr := d.Len() + 1
	var best *oneRModel
	for a := range d.Attrs {
		m, errs := buildOneR(d, a, buckets)
		if errs < bestErr || (errs == bestErr && best != nil && m.attr < best.attr) {
			bestErr = errs
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("ml: OneR found no usable attribute")
	}
	return best, nil
}

// vl is a (value, label) pair used by the OneR builder.
type vl struct {
	v     float64
	label string
}

// buildOneR constructs the rule for one attribute and returns its
// training error count.
func buildOneR(d *dataset.Dataset, attr, buckets int) (*oneRModel, int) {
	vals := make([]vl, d.Len())
	for i, in := range d.Instances {
		vals[i] = vl{in.Features[attr], in.Label}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

	per := len(vals) / buckets
	if per < 1 {
		per = 1
	}
	m := &oneRModel{attr: attr, defaultLbl: majorityOf(vals)}
	errs := 0
	for start := 0; start < len(vals); {
		end := start + per
		if end > len(vals) {
			end = len(vals)
		}
		// Extend the bucket so equal values never straddle a cut.
		for end < len(vals) && vals[end].v == vals[end-1].v {
			end++
		}
		seg := vals[start:end]
		label := majorityOf(seg)
		for _, x := range seg {
			if x.label != label {
				errs++
			}
		}
		m.labels = append(m.labels, label)
		if end < len(vals) {
			m.cuts = append(m.cuts, (vals[end-1].v+vals[end].v)/2)
		}
		start = end
	}
	return m, errs
}

func majorityOf(vals []vl) string {
	counts := map[string]int{}
	for _, x := range vals {
		counts[x.label]++
	}
	best, bestN := "", -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best
}

// Predict implements Classifier.
func (m *oneRModel) Predict(features []float64) string {
	if m.attr >= len(features) {
		return m.defaultLbl
	}
	v := features[m.attr]
	i := sort.SearchFloat64s(m.cuts, v)
	if i < len(m.labels) {
		return m.labels[i]
	}
	return m.defaultLbl
}
