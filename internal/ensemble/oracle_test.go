package ensemble

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"fsml/internal/core"
	"fsml/internal/ml"
	"fsml/internal/pmu"
	"fsml/internal/xrand"
)

// oracleClassify is the reference committee vote the compiled path must
// reproduce bit for bit: the per-call name maps, per-member projection
// and map-keyed vote that ClassifyRobust replaced. It reads only the
// ensemble's exported fields.
func oracleClassify(d *Detector, s pmu.Sample) (core.RobustResult, error) {
	if s.Instructions <= 0 {
		return core.RobustResult{}, errUnusable
	}
	layout := make(map[string]int, len(s.Names))
	for i, n := range s.Names {
		layout[n] = i
	}
	suspects := s.SuspectEvents()
	suspect := make(map[string]bool, len(suspects))
	for _, n := range suspects {
		suspect[n] = true
	}
	instrBad := s.InstrFlag.Suspect()

	missingSet := map[string]bool{}
	for _, a := range d.Attrs {
		if _, ok := layout[a]; !ok {
			missingSet[a] = true
		}
	}
	res := core.RobustResult{Suspects: suspects}
	for a := range missingSet {
		res.MissingEvents = append(res.MissingEvents, a)
	}
	sort.Strings(res.MissingEvents)

	type agg struct{ num, den float64 }
	scores := make(map[string]*agg, len(d.Classes))
	for _, c := range d.Classes {
		scores[c] = &agg{}
	}
	for _, m := range d.Members {
		class, conf, degraded := oraclePredictMember(m.Detector.FlatTree(), s, layout, suspect, instrBad)
		if degraded {
			res.Degraded = true
		}
		op := conf
		if class != m.Class {
			op = 1 - conf
		}
		a := scores[m.Class]
		a.num += m.Weight * op
		a.den += m.Weight
	}
	class, conf, degraded := oraclePredictMember(d.Base.FlatTree(), s, layout, suspect, instrBad)
	if degraded {
		res.Degraded = true
	}
	others := len(d.BaseClasses) - 1
	for _, c := range d.BaseClasses {
		a, ok := scores[c]
		if !ok {
			continue
		}
		op := conf
		if c != class {
			if others <= 0 {
				continue
			}
			op = (1 - conf) / float64(others)
		}
		a.num += d.BaseWeight * op
		a.den += d.BaseWeight
	}

	res.Pathologies = make([]core.PathologyScore, 0, len(d.Classes))
	var total float64
	for _, c := range d.Classes {
		a := scores[c]
		score := 0.0
		if a.den > 0 {
			score = a.num / a.den
		}
		res.Pathologies = append(res.Pathologies, core.PathologyScore{Class: c, Score: score})
		total += score
	}
	if total > 0 {
		for i := range res.Pathologies {
			res.Pathologies[i].Score /= total
		}
	}
	sort.SliceStable(res.Pathologies, func(i, j int) bool {
		if res.Pathologies[i].Score != res.Pathologies[j].Score {
			return res.Pathologies[i].Score > res.Pathologies[j].Score
		}
		return res.Pathologies[i].Class < res.Pathologies[j].Class
	})
	if len(res.Pathologies) > 0 {
		res.Class = res.Pathologies[0].Class
		res.Confidence = res.Pathologies[0].Score
	}
	return res, nil
}

// errUnusable stands in for the unusable-sample error; only its
// presence is compared.
var errUnusable = errors.New("pmu: sample has no usable instruction count")

// oraclePredictMember projects the sample onto one member tree by name
// and predicts, blending branches at attributes whose events are
// suspect or absent.
func oraclePredictMember(tree *ml.FlatTree, s pmu.Sample, layout map[string]int, suspect map[string]bool, instrBad bool) (string, float64, bool) {
	attrs := tree.Attrs
	fv := make([]float64, len(attrs))
	missing := make([]bool, len(attrs))
	any := false
	for i, a := range attrs {
		j, ok := layout[a]
		if ok {
			fv[i] = s.Counts[j] / s.Instructions
		}
		if instrBad || !ok || suspect[a] {
			missing[i] = true
			any = true
		}
	}
	if !any {
		return tree.Predict(fv), 1, false
	}
	class, conf := tree.PredictPartial(fv, missing)
	return class, conf, true
}

// sameVerdict reports the first difference between two verdicts,
// comparing floats by their bits.
func sameVerdict(got, want core.RobustResult) string {
	switch {
	case got.Class != want.Class:
		return "class"
	case math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence):
		return "confidence"
	case got.Degraded != want.Degraded:
		return "degraded"
	case !slices.Equal(got.Suspects, want.Suspects):
		return "suspects"
	case !slices.Equal(got.MissingEvents, want.MissingEvents):
		return "missing events"
	case len(got.Pathologies) != len(want.Pathologies):
		return "pathology count"
	}
	for i, p := range got.Pathologies {
		q := want.Pathologies[i]
		if p.Class != q.Class || math.Float64bits(p.Score) != math.Float64bits(q.Score) {
			return "pathologies"
		}
	}
	return ""
}

var (
	oracleOnce sync.Once
	oracleDet  *Detector
)

// oracleEnsemble trains the synthetic ensemble once per test binary.
func oracleEnsemble(tb testing.TB) *Detector {
	oracleOnce.Do(func() { oracleDet, _ = synthEnsemble(tb) })
	return oracleDet
}

// fuzzSample synthesizes a sample for the differential harness. The
// label picks the signature vector; the bit masks drop events, flag
// them, and duplicate them with a different value; reorder shuffles the
// layout; extra appends an event no member consults; instrBad flags the
// normalizer.
func fuzzSample(seed uint64, label uint8, drop, flag, dup uint32, reorder, extra, instrBad bool) pmu.Sample {
	rng := xrand.New(seed)
	names := pmu.EnsembleFeatureNames()
	fv := synthVector(len(names), wideLabels[int(label)%len(wideLabels)], rng)
	instr := 1e3 + float64(seed%1e6)
	s := pmu.Sample{Instructions: instr}
	if instrBad {
		s.InstrFlag = pmu.FlagStuck
	}
	flags := []pmu.CountFlag{pmu.FlagSaturated, pmu.FlagStuck, pmu.FlagStarved}
	add := func(name string, v float64, flagged bool) {
		var f pmu.CountFlag
		if flagged {
			f = flags[rng.Intn(len(flags))]
		}
		s.Names = append(s.Names, name)
		s.Counts = append(s.Counts, v*instr)
		s.Flags = append(s.Flags, f)
	}
	for i, n := range names {
		if drop&(1<<i) == 0 {
			add(n, fv[i], flag&(1<<i) != 0)
		}
		if dup&(1<<i) != 0 {
			add(n, 3*rng.Float64(), flag&(1<<(i+16)) != 0)
		}
	}
	if extra {
		add("OFFCORE.EXTRA_EVENT", rng.Float64(), rng.Intn(2) == 0)
	}
	if reorder {
		perm := rng.Perm(len(s.Names))
		n, c, f := s.Names, s.Counts, s.Flags
		s.Names, s.Counts, s.Flags = make([]string, len(n)), make([]float64, len(c)), make([]pmu.CountFlag, len(f))
		for i, j := range perm {
			s.Names[i], s.Counts[i], s.Flags[i] = n[j], c[j], f[j]
		}
	}
	return s
}

// FuzzEnsembleVsOracle requires the compiled committee vote to match
// the map-based reference bit for bit on synthesized samples: absent,
// suspect, duplicated, reordered and extra events and a flagged
// normalizer.
func FuzzEnsembleVsOracle(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint32(0), uint32(0), uint32(0), false, false, false)
	f.Add(uint64(2), uint8(1), uint32(1<<15), uint32(0), uint32(0), false, false, false) // legacy 15-feature sample
	f.Add(uint64(3), uint8(2), uint32(0), uint32(0b101), uint32(0), false, false, false)
	f.Add(uint64(4), uint8(3), uint32(0), uint32(0), uint32(0), false, false, true)
	f.Add(uint64(5), uint8(4), uint32(0b1000), uint32(0), uint32(0), true, true, false)
	f.Add(uint64(6), uint8(5), uint32(0), uint32(1<<16|1<<2), uint32(0b101), true, false, false)
	f.Add(uint64(7), uint8(0), uint32(0xffff), uint32(0), uint32(0), false, true, false)
	f.Add(uint64(8), uint8(1), uint32(0x00f0), uint32(0x0f0f), uint32(0xff00), true, true, true)
	det := oracleEnsemble(f)
	f.Fuzz(func(t *testing.T, seed uint64, label uint8, drop, flag, dup uint32, reorder, extra, instrBad bool) {
		s := fuzzSample(seed, label, drop, flag, dup, reorder, extra, instrBad)
		want, werr := oracleClassify(det, s)
		got, gerr := det.ClassifyRobust(s)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error mismatch: oracle %v, compiled %v", werr, gerr)
		}
		if diff := sameVerdict(got, want); diff != "" {
			t.Fatalf("%s differs:\ncompiled %+v\noracle   %+v\nsample %+v", diff, got, want, s)
		}
	})
}
