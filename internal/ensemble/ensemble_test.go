package ensemble

import (
	"errors"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/pmu"
	"fsml/internal/xrand"
)

// ---------------------------------------------------------------------------
// Synthetic fixtures: fast, simulation-free data with one signature
// attribute per class, so unit tests exercise the ensemble machinery
// without paying for grid collection.

// synthSignature maps each label to the attribute indices it spikes.
// Each class has two correlated markers, like real counter signatures
// (TLB thrash raises misses and walk cycles together) — which is also
// what lets a bagged member survive losing one marker to its random
// feature subset.
var synthSignature = map[string][]int{
	"good":         {9, 10}, // healthy runs have positive markers too (L1 hits, fills)
	"bad-fs":       {0, 4},
	"bad-ma":       {1, 5},
	"tlb-thrash":   {2, 6},
	"bw-saturated": {3, 7},
	"numa-remote":  {15, 8}, // 15 is the remote-DRAM attr, last in EnsembleFeatureNames
}

func synthVector(nattrs int, label string, rng *xrand.Rand) []float64 {
	fv := make([]float64, nattrs)
	for i := range fv {
		fv[i] = 0.01 * rng.Float64()
	}
	for _, idx := range synthSignature[label] {
		if idx < nattrs {
			fv[idx] = 2 + rng.Float64()
		}
	}
	return fv
}

func synthData(t testing.TB, attrs []string, labels []string, perClass int, seed uint64) *dataset.Dataset {
	t.Helper()
	d := dataset.New(attrs)
	rng := xrand.New(seed)
	for _, label := range labels {
		for i := 0; i < perClass; i++ {
			if err := d.Add(dataset.Instance{Features: synthVector(len(attrs), label, rng), Label: label, Source: label}); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}
	return d
}

var wideLabels = []string{"good", "bad-fs", "bad-ma", "tlb-thrash", "numa-remote", "bw-saturated"}

// synthEnsemble trains a base on the 3 legacy classes over the legacy 15
// attrs, then an ensemble on all 6 classes over the widened attrs.
func synthEnsemble(t testing.TB) (*Detector, *core.Detector) {
	t.Helper()
	baseData := synthData(t, pmu.FeatureNames(), []string{"good", "bad-fs", "bad-ma"}, 12, 7)
	base, err := core.TrainDetector(baseData)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	wide := synthData(t, pmu.EnsembleFeatureNames(), wideLabels, 12, 11)
	det, err := Train(wide, base, DefaultSpec())
	if err != nil {
		t.Fatalf("ensemble: %v", err)
	}
	return det, base
}

// synthSample fabricates a PMU sample whose normalized vector matches a
// synthetic feature vector over the given names.
func synthSample(names []string, fv []float64) pmu.Sample {
	const instr = 1e6
	counts := make([]float64, len(fv))
	for i, v := range fv {
		counts[i] = v * instr
	}
	return pmu.Sample{Names: append([]string(nil), names...), Counts: counts, Instructions: instr}
}

// ---------------------------------------------------------------------------
// Spec parsing

func TestParseEnsembleSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"", DefaultSpec(), true},
		{"members=5", Spec{Members: 5, Sample: 0.8, Seed: 1}, true},
		{"members=5,sample=0.5,seed=42", Spec{Members: 5, Sample: 0.5, Seed: 42}, true},
		{" seed=9 , members=2 ", Spec{Members: 2, Sample: 0.8, Seed: 9}, true},
		{"members=0", Spec{}, false},
		{"members=65", Spec{}, false},
		{"sample=0", Spec{}, false},
		{"sample=1.5", Spec{}, false},
		{"sample=NaN", Spec{}, false},
		{"bogus=1", Spec{}, false},
		{"members", Spec{}, false},
		{"members=x", Spec{}, false},
		{"members=3,,seed=1", Spec{}, false},
		{"seed=-1", Spec{}, false},
	}
	for _, c := range cases {
		got, err := ParseEnsembleSpec(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseEnsembleSpec(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseEnsembleSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, s := range []Spec{DefaultSpec(), {Members: 7, Sample: 0.65, Seed: 99}} {
		got, err := ParseEnsembleSpec(s.String())
		if err != nil {
			t.Fatalf("round-trip %q: %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round-trip %q = %+v, want %+v", s.String(), got, s)
		}
	}
}

// ---------------------------------------------------------------------------
// Training validation

func TestTrainRejectsBadInputs(t *testing.T) {
	baseData := synthData(t, pmu.FeatureNames(), []string{"good", "bad-fs", "bad-ma"}, 6, 3)
	base, err := core.TrainDetector(baseData)
	if err != nil {
		t.Fatal(err)
	}
	wide := synthData(t, pmu.EnsembleFeatureNames(), wideLabels, 6, 5)

	if _, err := Train(nil, base, DefaultSpec()); err == nil {
		t.Error("nil data accepted")
	}
	if _, err := Train(wide, nil, DefaultSpec()); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Train(wide, base, Spec{Members: 0, Sample: 0.8}); err == nil {
		t.Error("invalid spec accepted")
	}
	single := synthData(t, pmu.EnsembleFeatureNames(), []string{"good"}, 6, 5)
	if _, err := Train(single, base, DefaultSpec()); err == nil {
		t.Error("single-class data accepted")
	}
}

// ---------------------------------------------------------------------------
// Classification

func TestSyntheticVerdicts(t *testing.T) {
	det, _ := synthEnsemble(t)
	if got := det.Classes; len(got) != 6 {
		t.Fatalf("classes = %v, want 6 labels", got)
	}
	rng := xrand.New(123)
	names := pmu.EnsembleFeatureNames()
	for _, label := range wideLabels {
		s := synthSample(names, synthVector(len(names), label, rng))
		res, err := det.ClassifyRobust(s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Class != label {
			t.Errorf("%s: top-ranked %q (%.3f), pathologies %v", label, res.Class, res.Confidence, res.Pathologies)
		}
		if res.Degraded || len(res.MissingEvents) != 0 {
			t.Errorf("%s: unexpectedly degraded (missing %v)", label, res.MissingEvents)
		}
		var sum float64
		for _, p := range res.Pathologies {
			sum += p.Score
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: scores sum to %v, want 1", label, sum)
		}
		if !sort.SliceIsSorted(res.Pathologies, func(i, j int) bool {
			if res.Pathologies[i].Score != res.Pathologies[j].Score {
				return res.Pathologies[i].Score > res.Pathologies[j].Score
			}
			return res.Pathologies[i].Class < res.Pathologies[j].Class
		}) {
			t.Errorf("%s: pathologies not ranked: %v", label, res.Pathologies)
		}
	}
}

func TestLegacySampleDegradesPerMember(t *testing.T) {
	det, _ := synthEnsemble(t)
	rng := xrand.New(321)
	legacy := pmu.FeatureNames() // 15 features, no remote-DRAM counter
	s := synthSample(legacy, synthVector(len(legacy), "good", rng))
	res, err := det.ClassifyRobust(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissingEvents) != 1 || res.MissingEvents[0] != "MEM_UNCORE_RETIRED.REMOTE_DRAM" {
		t.Fatalf("MissingEvents = %v, want the remote-DRAM counter", res.MissingEvents)
	}
	if !res.Degraded {
		t.Fatal("want Degraded for a legacy 15-feature sample")
	}
	if res.Class != "good" {
		t.Fatalf("legacy good sample classified %q: %v", res.Class, res.Pathologies)
	}
}

func TestClassifyRejectsUnusableSample(t *testing.T) {
	det, _ := synthEnsemble(t)
	if _, err := det.ClassifyRobust(pmu.Sample{Names: det.Attrs, Counts: make([]float64, len(det.Attrs))}); err == nil {
		t.Fatal("want error for zero instruction count")
	}
}

func TestUnboundDetectorErrors(t *testing.T) {
	det, base := synthEnsemble(t)
	literal := &Detector{Classes: det.Classes, Attrs: det.Attrs, Members: det.Members, Base: base, BaseClasses: det.BaseClasses}
	s := synthSample(det.Attrs, make([]float64, len(det.Attrs)))
	if _, err := literal.ClassifyRobust(s); err == nil {
		t.Fatal("want an error from a Detector not built by Train or Decode")
	}
}

// ---------------------------------------------------------------------------
// Determinism and base-member exactness (synthetic; the simulation-backed
// versions live in accept_test.go)

func TestTrainDeterministic(t *testing.T) {
	a, _ := synthEnsemble(t)
	b, _ := synthEnsemble(t)
	blobA, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blobA) != string(blobB) {
		t.Fatal("two identical trainings serialized differently")
	}
}

func TestBaseMemberIsTheBaseDetector(t *testing.T) {
	det, base := synthEnsemble(t)
	if det.Base != base {
		t.Fatal("ensemble must keep the base detector it was given, not a copy")
	}
	rng := xrand.New(55)
	names := pmu.FeatureNames()
	for _, label := range []string{"good", "bad-fs", "bad-ma"} {
		s := synthSample(names, synthVector(len(names), label, rng))
		want, err := base.ClassifyRobust(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := det.Base.ClassifyRobust(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Confidence != want.Confidence || got.Degraded != want.Degraded {
			t.Fatalf("%s: base member %+v, standalone %+v", label, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Serialization

func TestEncodeDecodeRoundTrip(t *testing.T) {
	det, _ := synthEnsemble(t)
	blob, err := det.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	names := pmu.EnsembleFeatureNames()
	for _, label := range wideLabels {
		s := synthSample(names, synthVector(len(names), label, rng))
		want, err := det.ClassifyRobust(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.ClassifyRobust(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Confidence != want.Confidence {
			t.Fatalf("%s: loaded verdict (%s %.6f) != original (%s %.6f)",
				label, got.Class, got.Confidence, want.Class, want.Confidence)
		}
	}
	blob2, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("decode/encode is not a fixed point")
	}
}

func TestDecodeRejectsForeignFormats(t *testing.T) {
	if _, err := Decode([]byte(`{"format":"fsml-detector","version":2}`)); err == nil {
		t.Fatal("single-detector file accepted as ensemble")
	} else {
		var fe *EnsembleFormatError
		if !errors.As(err, &fe) {
			t.Fatalf("want *EnsembleFormatError, got %T: %v", err, err)
		}
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode([]byte(`{"format":"fsml-ensemble-v1","classes":["a","b"],"members":[]}`)); err == nil {
		t.Fatal("memberless file accepted")
	}
}

// TestDecodeRejectsBadWeights pins that a vote weight must be a finite
// non-negative number and that no class's summed weight may overflow:
// either would make a decoded ensemble answer NaN scores.
func TestDecodeRejectsBadWeights(t *testing.T) {
	if _, err := Decode([]byte(tinyEnsemble)); err != nil {
		t.Fatalf("valid ensemble rejected: %v", err)
	}
	cases := map[string]string{
		"negative member weight":  strings.Replace(tinyEnsemble, `"weight":0.9`, `"weight":-0.9`, 1),
		"negative base weight":    strings.Replace(tinyEnsemble, `"base_weight":0.8`, `"base_weight":-1`, 1),
		"member weights overflow": hugeWeights,
		"member and base weights overflow": strings.Replace(strings.Replace(tinyEnsemble,
			`"weight":0.9`, `"weight":1e308`, 1), `"base_weight":0.8`, `"base_weight":1e308`, 1),
	}
	for name, blob := range cases {
		det, err := Decode([]byte(blob))
		if err == nil {
			res, cerr := det.ClassifyRobust(pmu.Sample{Names: det.Attrs, Counts: []float64{0.1, 0.2}, Instructions: 1})
			t.Errorf("%s: accepted (classifies to %+v, %v)", name, res, cerr)
		}
	}
}

// TestBindRejectsNonFiniteWeights covers the weights JSON cannot carry
// but a hand-built ensemble can.
func TestBindRejectsNonFiniteWeights(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		det, err := Decode([]byte(tinyEnsemble))
		if err != nil {
			t.Fatal(err)
		}
		det.Members[0].Weight = w
		if err := det.bind(); err == nil {
			t.Errorf("member weight %v accepted", w)
		}
		det.Members[0].Weight = 1
		det.BaseWeight = w
		if err := det.bind(); err == nil {
			t.Errorf("base weight %v accepted", w)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	det, _ := synthEnsemble(t)
	path := filepath.Join(t.TempDir(), "ensemble.json")
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Members) != len(det.Members) {
		t.Fatalf("loaded %d members, want %d", len(loaded.Members), len(det.Members))
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: ensemble-vs-single classify overhead (BENCH_10)

func BenchmarkDetectorClassify(b *testing.B) {
	_, base := synthEnsemble(b)
	rng := xrand.New(9)
	names := pmu.FeatureNames()
	s := synthSample(names, synthVector(len(names), "bad-fs", rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.ClassifyRobust(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsembleClassify ranks a full widened sample (clean) and a
// legacy 15-feature one (degraded: the remote-DRAM counter is absent,
// so every member that consults it blends branches).
func BenchmarkEnsembleClassify(b *testing.B) {
	det, _ := synthEnsemble(b)
	for _, v := range []struct {
		name  string
		names []string
	}{
		{"clean", pmu.EnsembleFeatureNames()},
		{"degraded", pmu.FeatureNames()},
	} {
		rng := xrand.New(9)
		s := synthSample(v.names, synthVector(len(v.names), "bad-fs", rng))
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := det.ClassifyRobust(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
