package core

// The hoisted projection layer of the classify hot path. Projecting a
// pmu.Sample onto a tree's attribute list means resolving each attribute
// name to a sample index — historically done per call with a freshly
// built name->index map. A windowed streaming session classifies
// thousands of samples that all share one event layout, so the detector
// caches the resolved index mapping and re-validates only that the
// layout is still the one the cache was built for (a pointer comparison
// when the producer reuses its Names slice, an element compare
// otherwise). The cache is a single atomic slot: concurrent classifiers
// alternating between layouts stay correct — they just rebuild — and the
// steady-state one-layout case (batch sweeps, streaming windows) never
// rebuilds.

import (
	"fmt"

	"fsml/internal/pmu"
)

// projection is one resolved sample-layout -> tree-attribute mapping.
type projection struct {
	// names is the sample layout the mapping was built for. The slice is
	// retained, not copied, so a producer that reuses its Names slice
	// across samples hits the O(1) identity fast path; layouts are
	// treated as immutable once handed to Classify.
	names []string
	// idx maps tree attribute i to its index in the sample's Counts.
	idx []int
}

// sameLayout reports whether two layouts are the same, cheaply: length,
// then backing-array identity, then element compare.
func sameLayout(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	if &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildProjection resolves every tree attribute in the given layout.
func buildProjection(attrs, names []string) (*projection, error) {
	byName := make(map[string]int, len(names))
	for i, n := range names {
		byName[n] = i
	}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := byName[a]
		if !ok {
			return nil, fmt.Errorf("core: sample does not carry event %q", a)
		}
		idx[i] = j
	}
	return &projection{names: names, idx: idx}, nil
}

// projectTree returns the tree's normalized feature vector for s using
// the cached projection, rebuilding it only when the sample layout
// changed. It is the hot windowed path every classification takes. The
// vector has spare more elements of capacity, so a caller needing
// scratch space next to it allocates once.
func (d *Detector) projectTree(s pmu.Sample, spare int) ([]float64, error) {
	if d.flat == nil {
		return nil, ErrNotCompiled
	}
	if s.Instructions <= 0 {
		return nil, fmt.Errorf("pmu: sample has no usable instruction count (normalizer read %g)", s.Instructions)
	}
	p, err := d.projection(s.Names)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(p.idx), len(p.idx)+spare)
	for i, j := range p.idx {
		out[i] = s.Counts[j] / s.Instructions
	}
	return out, nil
}

// projection returns the cached mapping for a sample layout, resolving
// and publishing a new one when the layout changed.
func (d *Detector) projection(names []string) (*projection, error) {
	if p := d.proj.Load(); p != nil && sameLayout(p.names, names) {
		return p, nil
	}
	p, err := buildProjection(d.flat.Attrs, names)
	if err != nil {
		return nil, err
	}
	d.proj.Store(p)
	return p, nil
}
