package core

// The columnar frame path behind the binary classify protocol: a whole
// micro-batch of pre-normalized event vectors sharing one layout is
// projected once and classified in a single pass over the flattened
// tree, so the per-vector cost is pure index chasing — no JSON, no
// sample structs, no per-vector allocations. Verdicts are identical to
// classifying each vector alone through Classify (the projection is
// the same cached mapping and the same compiled tree).

import "fmt"

// ClassifyVectors classifies a frame of pre-normalized event vectors
// in one columnar pass. vecs is row-major — len(classes)*width values,
// vector i occupying vecs[i*width:(i+1)*width] — and names labels the
// width columns (nil means the detector's own attribute order).
// classes[i] receives vector i's verdict as an interned string, so the
// per-vector work allocates nothing; the whole frame costs one column
// buffer. Vectors are "pre-normalized" in the serve sense: already
// counts-per-instruction, exactly the values a ClassifyRequest vector
// carries.
func (d *Detector) ClassifyVectors(names []string, vecs []float64, width int, classes []string) error {
	ft := d.flat
	if ft == nil {
		return ErrNotCompiled
	}
	n := len(classes)
	if width <= 0 {
		return fmt.Errorf("core: frame vector width %d, want > 0", width)
	}
	if len(vecs) != n*width {
		return fmt.Errorf("core: frame carries %d values, want %d (%d vectors x width %d)", len(vecs), n*width, n, width)
	}
	if names == nil {
		names = ft.Attrs
	}
	if len(names) != width {
		return fmt.Errorf("core: frame names %d events but vectors are %d wide", len(names), width)
	}
	// The same cached layout->attribute projection the scalar path uses.
	p, err := d.projection(names)
	if err != nil {
		return err
	}
	nAttrs := len(p.idx)
	buf := make([]float64, nAttrs*n)
	cols := make([][]float64, nAttrs)
	for a := range cols {
		cols[a] = buf[a*n : (a+1)*n]
	}
	// Projection happens during the transpose: column a of the batch is
	// the sample index p.idx[a] of every row.
	for i := 0; i < n; i++ {
		row := vecs[i*width : (i+1)*width]
		for a, j := range p.idx {
			cols[a][i] = row[j]
		}
	}
	ids := make([]int32, n)
	if err := ft.ClassifyBatch(cols, ids); err != nil {
		return err
	}
	for i, id := range ids {
		classes[i] = ft.Classes[id]
	}
	return nil
}
