// Package ensemble combines per-pathology detectors into one calibrated
// multi-label verdict (ROADMAP item 4).
//
// The paper's single C4.5 tree answers a three-way question: good,
// bad-fs or bad-ma. The machine model, however, simulates resources the
// 3-class detector never looks at — the DTLB, the NUMA home-node
// latency domain, the line-fill buffers — and the widened label space
// (miniprog.AllModes) has a kernel family for each. This package grows
// one small bagged committee of one-vs-rest C4.5 trees per label on
// bootstrap-resampled feature subsets, keeps the existing 3-class tree
// as a member, calibrates every committee's vote with its held-out
// cross-validation accuracy, and emits the single detector's verdict
// type, core.RobustResult, with its ranked Pathologies filled in. Every
// member is a core.Detector and votes through its ClassifyRobust.
//
// Everything is deterministic given Spec.Seed: bootstrap draws and
// feature subsets come from index-derived xrand streams, members are
// trained and voted in sorted class order, and ties rank by ascending
// label. Training the same data twice — at any parallelism — yields
// byte-identical ensembles and verdicts.
package ensemble

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ml"
	"fsml/internal/xrand"
)

// Spec configures ensemble growth. The zero value is not usable; start
// from DefaultSpec (or ParseEnsembleSpec, which applies the defaults).
type Spec struct {
	// Members is the number of bagged trees per class committee.
	Members int
	// Sample is the bootstrap resample size as a fraction of the
	// training set, in (0, 1].
	Sample float64
	// Seed drives bootstrap draws and feature-subset choices.
	Seed uint64
}

// DefaultSpec returns the default growth parameters.
func DefaultSpec() Spec { return Spec{Members: 3, Sample: 0.8, Seed: 1} }

// Validate reports whether the spec is trainable.
func (s Spec) Validate() error {
	if s.Members < 1 || s.Members > 64 {
		return fmt.Errorf("ensemble: members %d out of [1,64]", s.Members)
	}
	if !(s.Sample > 0 && s.Sample <= 1) || math.IsNaN(s.Sample) {
		return fmt.Errorf("ensemble: sample fraction %v out of (0,1]", s.Sample)
	}
	return nil
}

// String renders the spec in ParseEnsembleSpec's syntax.
func (s Spec) String() string {
	return fmt.Sprintf("members=%d,sample=%g,seed=%d", s.Members, s.Sample, s.Seed)
}

// ParseEnsembleSpec parses a "members=5,sample=0.8,seed=42" spec string.
// Keys may appear in any order; omitted keys keep their defaults; the
// empty string is the default spec. Unknown keys, malformed pairs and
// out-of-range values are errors.
func ParseEnsembleSpec(s string) (Spec, error) {
	spec := DefaultSpec()
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Spec{}, fmt.Errorf("ensemble: empty clause in spec %q", s)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("ensemble: clause %q is not key=value", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "members":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Spec{}, fmt.Errorf("ensemble: members %q: %v", v, err)
			}
			spec.Members = n
		case "sample":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("ensemble: sample %q: %v", v, err)
			}
			spec.Sample = f
		case "seed":
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("ensemble: seed %q: %v", v, err)
			}
			spec.Seed = u
		default:
			return Spec{}, fmt.Errorf("ensemble: unknown spec key %q", k)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Member is one bagged one-vs-rest tree of a class committee.
type Member struct {
	// Class is the label this member votes for ("rest" is its other
	// leaf label).
	Class string
	// Detector is the member's binary C4.5 tree over its feature subset
	// (Detector.Tree.Attrs names it), compiled by core.NewDetector; the
	// member votes through its ClassifyRobust.
	Detector *core.Detector
	// Weight is the committee's calibration weight: the held-out CV
	// accuracy of the class's one-vs-rest task (shared by the class's
	// members).
	Weight float64
}

// Detector is a trained multi-pathology ensemble. Build one with Train
// or Decode and do not modify it afterwards: both resolve the vote
// layout once (a Detector assembled any other way answers
// ClassifyRobust with an error).
type Detector struct {
	// Classes is the full label space, sorted.
	Classes []string
	// Attrs is the widened attribute list the ensemble was trained on.
	Attrs []string
	// Members holds the class committees, grouped by class in sorted
	// class order, members in growth order within a class.
	Members []Member
	// Base is the paper's 3-class detector, included as a member. It is
	// the very detector passed to Train — not a retrained copy — so it
	// agrees exactly with standalone classification.
	Base *core.Detector
	// BaseClasses is the base member's own label space, sorted (its
	// compiled tree's class table).
	BaseClasses []string
	// BaseWeight is the base member's calibration weight.
	BaseWeight float64

	// memberClass and baseClass are the positions in Classes of each
	// member's class and each base label (-1: not an ensemble class),
	// resolved once by bind.
	memberClass, baseClass []int
	// layout caches the last sample layout resolved onto Attrs.
	layout atomic.Pointer[layout]
}

// restLabel is the complement class of every one-vs-rest tree. The "~"
// prefix keeps it out of the real label namespace and sorts it after
// every mode label, pinning PredictPartial's ascending-label tie rule.
const restLabel = "~rest"

// Train grows the ensemble from a labeled dataset over the widened
// feature space plus the existing 3-class detector. Each class in the
// data gets a committee of spec.Members one-vs-rest trees, each trained
// on a seeded bootstrap resample of spec.Sample fraction and a seeded
// random feature subset; the committee's vote weight is its one-vs-rest
// task's held-out cross-validation accuracy.
func Train(data *dataset.Dataset, base *core.Detector, spec Spec) (*Detector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("ensemble: empty training set")
	}
	if base == nil || base.FlatTree() == nil {
		return nil, fmt.Errorf("ensemble: 3-class base detector: %w", core.ErrNotCompiled)
	}
	classes := data.Classes()
	if len(classes) < 2 {
		return nil, fmt.Errorf("ensemble: training set has %d class(es), want >= 2", len(classes))
	}
	det := &Detector{
		Classes:     classes,
		Attrs:       append([]string(nil), data.Attrs...),
		Base:        base,
		BaseClasses: base.FlatTree().Classes,
	}
	for ci, class := range classes {
		bin := binarize(data, class)
		weight, err := calibrate(bin, xrand.DeriveSeed(spec.Seed, uint64(ci)*4099+1))
		if err != nil {
			return nil, fmt.Errorf("ensemble: calibrating %s: %w", class, err)
		}
		for m := 0; m < spec.Members; m++ {
			seed := xrand.DeriveSeed(spec.Seed, uint64(ci)*4099+uint64(m)*131+7)
			sub := resample(bin, spec.Sample, seed)
			tree, err := ml.NewC45(ml.DefaultC45()).TrainTree(sub)
			var member *core.Detector
			if err == nil {
				member, err = core.NewDetector(tree, nil)
			}
			if err != nil {
				return nil, fmt.Errorf("ensemble: growing %s member %d: %w", class, m, err)
			}
			det.Members = append(det.Members, Member{Class: class, Detector: member, Weight: weight})
		}
	}
	// The base member's weight is the mean committee weight of the
	// classes it can name: it is one opinion among the committees, not
	// a veto over them.
	var n int
	for ci, class := range classes {
		if slices.Contains(det.BaseClasses, class) {
			det.BaseWeight += det.Members[ci*spec.Members].Weight
			n++
		}
	}
	if n > 0 {
		det.BaseWeight /= float64(n)
	}
	if err := det.bind(); err != nil {
		return nil, err
	}
	return det, nil
}

// binarize relabels the dataset as class vs restLabel.
func binarize(d *dataset.Dataset, class string) *dataset.Dataset {
	out := dataset.New(d.Attrs)
	for _, inst := range d.Instances {
		label := restLabel
		if inst.Label == class {
			label = class
		}
		// Add cannot fail: features match the attrs by construction.
		_ = out.Add(dataset.Instance{Features: inst.Features, Label: label, Source: inst.Source})
	}
	return out
}

// calibrate scores a one-vs-rest task by stratified held-out CV: the
// returned weight is the k-fold cross-validated accuracy, the fraction
// of held-out instances the task's tree labels correctly. Sets too
// small or too skewed to stratify fall back to resubstitution.
func calibrate(bin *dataset.Dataset, seed uint64) (float64, error) {
	const folds = 3
	ok := bin.Len() >= folds*2
	for _, n := range bin.CountByClass() {
		if n < folds {
			ok = false
		}
	}
	trainer := ml.NewC45(ml.DefaultC45())
	if ok {
		conf, err := ml.CrossValidate(trainer, bin, folds, seed)
		if err != nil {
			return 0, err
		}
		return conf.Accuracy(), nil
	}
	model, err := trainer.Train(bin)
	if err != nil {
		return 0, err
	}
	return ml.ResubstitutionError(model, bin).Accuracy(), nil
}

// resample draws a seeded bootstrap of frac*len instances (with
// replacement) over a seeded feature subset of roughly three quarters
// of the attributes. Every committee member sees different rows and
// different columns, which is what makes the committee's errors less
// correlated than one tree's.
func resample(d *dataset.Dataset, frac float64, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	n := int(math.Ceil(frac * float64(d.Len())))
	if n < 1 {
		n = 1
	}
	// Feature subset: keep ceil(3/4) of the attributes, chosen by a
	// seeded shuffle, preserving attribute order for determinism.
	k := (len(d.Attrs)*3 + 3) / 4
	if k < 2 {
		k = len(d.Attrs)
	}
	perm := rng.Perm(len(d.Attrs))
	keep := append([]int(nil), perm[:k]...)
	sort.Ints(keep)
	attrs := make([]string, len(keep))
	for i, j := range keep {
		attrs[i] = d.Attrs[j]
	}
	out := dataset.New(attrs)
	for i := 0; i < n; i++ {
		inst := d.Instances[rng.Intn(d.Len())]
		fv := make([]float64, len(keep))
		for j, a := range keep {
			fv[j] = inst.Features[a]
		}
		_ = out.Add(dataset.Instance{Features: fv, Label: inst.Label, Source: inst.Source})
	}
	return out
}
