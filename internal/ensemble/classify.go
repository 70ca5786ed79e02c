package ensemble

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fsml/internal/core"
	"fsml/internal/pmu"
)

// layout is one sample event layout resolved onto the ensemble's
// attribute list, cached the way core caches its tree projection: a
// stream of samples sharing one programming resolves it once.
type layout struct {
	// names is the sample layout the mapping was built for (retained,
	// not copied; layouts are immutable once handed to ClassifyRobust).
	names []string
	// cols lists, per ensemble attribute, every sample index carrying
	// that event, in sample order (empty when the sample lacks it).
	cols [][]int
	// missing is the sorted list of attributes no sample index carries;
	// every verdict over this layout shares it (read-only).
	missing []string
}

// resolve returns the cached mapping for a sample layout, building and
// publishing a new one when the layout changed.
func (d *Detector) resolve(names []string) *layout {
	if l := d.layout.Load(); l != nil && slices.Equal(l.names, names) {
		return l
	}
	l := &layout{names: names, cols: make([][]int, len(d.Attrs))}
	for k, a := range d.Attrs {
		for j, n := range names {
			if n == a {
				l.cols[k] = append(l.cols[k], j)
			}
		}
		if len(l.cols[k]) == 0 {
			l.missing = append(l.missing, a)
		}
	}
	slices.Sort(l.missing)
	d.layout.Store(l)
	return l
}

// ClassifyRobust runs every committee over the sample and aggregates
// the votes into a ranked verdict (RobustResult.Pathologies).
//
// The sample is mapped once onto the ensemble's attribute list: an event
// the sample lacks becomes a zero count flagged pmu.FlagStarved, and of
// duplicated events the last value wins while any flagged copy flags
// the event. Every member and the base then vote through
// core.Detector.ClassifyRobust on that one mapped sample, so degradation
// is per-member: a member whose feature subset consults a flagged or
// absent event blends split branches and votes with reduced confidence,
// while unaffected members vote at full strength. A flagged instruction
// normalizer poisons every normalized feature, so every member falls
// back toward its training prior. A sample with no usable instruction
// count at all is an error.
func (d *Detector) ClassifyRobust(s pmu.Sample) (core.RobustResult, error) {
	if len(d.memberClass) != len(d.Members) || d.baseClass == nil {
		return core.RobustResult{}, fmt.Errorf("ensemble: detector was not built by Train or Decode")
	}
	if s.Instructions <= 0 {
		return core.RobustResult{}, fmt.Errorf("pmu: sample has no usable instruction count (normalizer read %g)", s.Instructions)
	}
	l := d.resolve(s.Names)
	nc := len(d.Classes)
	buf := make([]float64, len(d.Attrs)+2*nc)
	num, den := buf[:nc], buf[nc:2*nc]
	mapped := pmu.Sample{Names: d.Attrs, Counts: buf[2*nc:], Instructions: s.Instructions, InstrFlag: s.InstrFlag}
	for k, cols := range l.cols {
		var flag pmu.CountFlag
		if len(cols) == 0 {
			flag = pmu.FlagStarved
		}
		for _, j := range cols {
			mapped.Counts[k] = s.Counts[j]
			flag |= s.Flag(j)
		}
		if flag != 0 {
			if mapped.Flags == nil {
				mapped.Flags = make([]pmu.CountFlag, len(d.Attrs))
			}
			mapped.Flags[k] = flag
		}
	}
	res := core.RobustResult{Suspects: s.SuspectEvents(), MissingEvents: l.missing}

	// Committee votes: a member's opinion of its class is its
	// confidence when it names the class, the complement otherwise.
	for i, m := range d.Members {
		rr, err := m.Detector.ClassifyRobust(mapped)
		if err != nil {
			return core.RobustResult{}, err
		}
		res.Degraded = res.Degraded || rr.Degraded
		op := rr.Confidence
		if rr.Class != m.Class {
			op = 1 - op
		}
		ci := d.memberClass[i]
		num[ci] += m.Weight * op
		den[ci] += m.Weight
	}

	// Base member: the paper's 3-class tree votes over its own label
	// space; the confidence mass it withholds from its predicted class
	// is spread over its other labels.
	rr, err := d.Base.ClassifyRobust(mapped)
	if err != nil {
		return core.RobustResult{}, err
	}
	res.Degraded = res.Degraded || rr.Degraded
	others := len(d.BaseClasses) - 1
	for j, c := range d.BaseClasses {
		ci := d.baseClass[j]
		if ci < 0 {
			continue
		}
		op := rr.Confidence
		if c != rr.Class {
			if others <= 0 {
				continue
			}
			op = (1 - rr.Confidence) / float64(others)
		}
		num[ci] += d.BaseWeight * op
		den[ci] += d.BaseWeight
	}

	res.Pathologies = make([]core.PathologyScore, nc)
	var total float64
	for ci, c := range d.Classes {
		score := 0.0
		if den[ci] > 0 {
			score = num[ci] / den[ci]
		}
		res.Pathologies[ci] = core.PathologyScore{Class: c, Score: score}
		total += score
	}
	if total > 0 {
		for i := range res.Pathologies {
			res.Pathologies[i].Score /= total
		}
	}
	// Classes are distinct (bind), so this order is total.
	slices.SortFunc(res.Pathologies, func(a, b core.PathologyScore) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Class, b.Class)
	})
	if nc > 0 {
		res.Class = res.Pathologies[0].Class
		res.Confidence = res.Pathologies[0].Score
	}
	return res, nil
}

// bind resolves, once per built ensemble, what ClassifyRobust would
// otherwise look up per vote — each member's and base label's position
// in Classes — and rejects ensembles that cannot vote: empty or
// duplicate classes, duplicate attributes, a member or base attribute
// outside Attrs (the mapped sample would not carry it), a member voting
// for an unknown class, and vote weights that are negative, NaN or Inf
// or whose per-class sum overflows (the score would be NaN).
func (d *Detector) bind() error {
	for i, c := range d.Classes {
		if c == "" || slices.Index(d.Classes, c) != i {
			return fmt.Errorf("ensemble: class %q is empty or listed twice", c)
		}
	}
	for i, a := range d.Attrs {
		if slices.Index(d.Attrs, a) != i {
			return fmt.Errorf("ensemble: attribute %q listed twice", a)
		}
	}
	check := func(who string, det *core.Detector, w float64) error {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("ensemble: %s: weight %g is not a finite non-negative number", who, w)
		}
		for _, a := range det.Tree.Attrs {
			if !slices.Contains(d.Attrs, a) {
				return fmt.Errorf("ensemble: %s: attribute %q is not an ensemble attribute", who, a)
			}
		}
		return nil
	}
	if err := check("base member", d.Base, d.BaseWeight); err != nil {
		return err
	}
	sum := make([]float64, len(d.Classes))
	d.memberClass = make([]int, len(d.Members))
	for i, m := range d.Members {
		ci := slices.Index(d.Classes, m.Class)
		if ci < 0 {
			return fmt.Errorf("ensemble: member %d votes for unknown class %q", i, m.Class)
		}
		if err := check(fmt.Sprintf("member %d (%s)", i, m.Class), m.Detector, m.Weight); err != nil {
			return err
		}
		d.memberClass[i] = ci
		sum[ci] += m.Weight
	}
	d.baseClass = make([]int, len(d.BaseClasses))
	for j, c := range d.BaseClasses {
		if d.baseClass[j] = slices.Index(d.Classes, c); d.baseClass[j] >= 0 {
			sum[d.baseClass[j]] += d.BaseWeight
		}
	}
	for ci, w := range sum {
		if math.IsInf(w, 0) {
			return fmt.Errorf("ensemble: class %q: summed vote weight overflows", d.Classes[ci])
		}
	}
	return nil
}
