package ml

// The pointer-tree walker, kept only as the differential oracle for the
// compiled FlatTree: production code predicts through FlatTree alone,
// and these straightforward recursive walks over the training form pin
// what its index-chasing loops must compute, bit for bit.

import "sort"

// oraclePredict walks the pointer tree for a full feature vector.
func oraclePredict(t *Tree, features []float64) string {
	n := t.Root
	for !n.Leaf {
		if features[n.Attr] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// oraclePredictPartial is C4.5's missing-value descent over the pointer
// tree: missing[i] true means features[i] must not be consulted, and a
// split on a missing attribute descends BOTH children, each weighted by
// its training population (evenly when neither child carries one). The
// confidence is the winning class's share of the total leaf weight.
//
// Class weights accumulate in left-then-right DFS order, the total sums
// them in ascending label order, and an exact weight tie goes to the
// lexicographically smallest label — the rule FlatTree.PredictPartial
// must reproduce to the last confidence bit.
func oraclePredictPartial(t *Tree, features []float64, missing []bool) (class string, confidence float64) {
	weights := map[string]float64{}
	var walk func(n *Node, w float64)
	walk = func(n *Node, w float64) {
		if n.Leaf {
			weights[n.Class] += w
			return
		}
		if n.Attr < len(missing) && missing[n.Attr] {
			if total := n.Left.N + n.Right.N; total > 0 {
				walk(n.Left, w*n.Left.N/total)
				walk(n.Right, w*n.Right.N/total)
			} else {
				walk(n.Left, w/2)
				walk(n.Right, w/2)
			}
			return
		}
		if features[n.Attr] <= n.Threshold {
			walk(n.Left, w)
		} else {
			walk(n.Right, w)
		}
	}
	walk(t.Root, 1)
	labels := make([]string, 0, len(weights))
	for l := range weights {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	total := 0.0
	for _, l := range labels {
		total += weights[l]
	}
	bestW := -1.0
	for _, l := range labels {
		if weights[l] > bestW {
			class, bestW = l, weights[l]
		}
	}
	return class, bestW / total
}
