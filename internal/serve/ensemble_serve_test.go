package serve

// Tests of the ensemble side of the serving layer: key parsing, the
// ?ensemble=1 classify path, the registry's ensemble warm start,
// quarantine and base-detector reuse, and the detector listing. Like the rest of the suite,
// everything runs against a tiny hand-built model so no test pays for a
// widened-grid training sweep.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ensemble"
	"fsml/internal/pmu"
)

// vecSample wraps a pre-normalized vector the way classifyVector does:
// a synthetic sample with an instruction normalizer of 1.
func vecSample(names []string, vec []float64) pmu.Sample {
	return pmu.Sample{Names: names, Counts: vec, Instructions: 1}
}

// Attribute names of the tiny test ensemble. The wide space extends the
// tiny detector's two attributes with synthetic pathology markers — two
// correlated markers per class, so every bagged feature subset keeps at
// least one of them.
var tinyWideAttrs = []string{
	attrHITM, "FS.SECONDARY",
	attrMiss,
	"TLB.WALK_A", "TLB.WALK_B",
	"GOOD.MARK_A", "GOOD.MARK_B",
}

// tinyWideSignature maps each label to the indexes of its spike
// attributes in tinyWideAttrs.
var tinyWideSignature = map[string][]int{
	"bad-fs":     {0, 1},
	"tlb-thrash": {3, 4},
	"good":       {5, 6},
}

// tinyWideVector builds one feature vector for a label: low noise
// everywhere, a spike on the label's signature attributes.
func tinyWideVector(label string, i int) []float64 {
	fv := make([]float64, len(tinyWideAttrs))
	for j := range fv {
		fv[j] = 0.01 + float64((i+j)%7)*0.001
	}
	for _, j := range tinyWideSignature[label] {
		fv[j] = 2 + float64(i)*0.01
	}
	return fv
}

// tinyEnsemble hand-builds a deterministic three-class ensemble around
// the tiny detector.
func tinyEnsemble(t testing.TB) *ensemble.Detector {
	t.Helper()
	d := dataset.New(tinyWideAttrs)
	for label := range tinyWideSignature {
		for i := 0; i < 12; i++ {
			if err := d.Add(dataset.Instance{Features: tinyWideVector(label, i), Label: label}); err != nil {
				t.Fatal(err)
			}
		}
	}
	det, err := ensemble.Train(d, tinyDetector(t), ensemble.Spec{Members: 3, Sample: 0.8, Seed: 5})
	if err != nil {
		t.Fatalf("training tiny ensemble: %v", err)
	}
	return det
}

// newEnsembleTestServer wires a server whose registry serves the tiny
// ensemble instantly.
func newEnsembleTestServer(t testing.TB) (*Server, *Client) {
	t.Helper()
	ens := tinyEnsemble(t)
	return newTestServer(t, Config{
		TrainEnsemble: func(EnsembleSpec, *core.Detector) (*ensemble.Detector, error) { return ens, nil },
	})
}

func TestEnsembleSpecKeyRoundTrip(t *testing.T) {
	for _, spec := range []EnsembleSpec{
		{Quick: true, Seed: 1},
		{Quick: false, Seed: 42},
		{Quick: true, Seed: 0}, // canonicalizes to seed=1
	} {
		key := spec.Key()
		got, ok := parseEnsembleKey(key)
		if !ok {
			t.Fatalf("parseEnsembleKey(%q) rejected its own Key", key)
		}
		want := spec
		if want.Seed == 0 {
			want.Seed = 1
		}
		if got != want {
			t.Errorf("round trip %q: got %+v, want %+v", key, got, want)
		}
	}
	for _, bad := range []string{
		"", "ensemble:", "train:quick=true,seed=1",
		"ensemble:quick=2,seed=1", "ensemble:frob=1", "ensemble:quick",
	} {
		if _, ok := parseEnsembleKey(bad); ok {
			t.Errorf("parseEnsembleKey(%q) accepted a malformed key", bad)
		}
	}
}

// TestClassifyEnsembleEndToEnd drives POST /v1/classify?ensemble=1
// through the real HTTP stack and checks the ranked multi-label verdict;
// the same vector without the opt-in must keep the single-detector wire
// shape (no pathologies field).
func TestClassifyEnsembleEndToEnd(t *testing.T) {
	_, client := newEnsembleTestServer(t)
	req := ClassifyRequest{Events: tinyWideAttrs, Vector: tinyWideVector("tlb-thrash", 99)}

	resp, err := client.ClassifyEnsemble(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != "tlb-thrash" {
		t.Errorf("top class %q, want tlb-thrash (pathologies %v)", resp.Class, resp.Pathologies)
	}
	if want := (EnsembleSpec{Quick: true, Seed: 1}).Key(); resp.Detector != want {
		t.Errorf("detector key %q, want %q", resp.Detector, want)
	}
	if len(resp.Pathologies) != 3 {
		t.Fatalf("got %d pathologies, want 3: %v", len(resp.Pathologies), resp.Pathologies)
	}
	sum := 0.0
	for i, p := range resp.Pathologies {
		sum += p.Score
		if i > 0 && p.Score > resp.Pathologies[i-1].Score {
			t.Errorf("pathologies not ranked descending: %v", resp.Pathologies)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("pathology scores sum to %v, want 1", sum)
	}
	if resp.Pathologies[0].Class != resp.Class || resp.Pathologies[0].Score != resp.Confidence {
		t.Errorf("Class/Confidence (%q %v) do not mirror the top entry %v", resp.Class, resp.Confidence, resp.Pathologies[0])
	}

	// Without the opt-in the request hits the single detector: its two
	// attributes, no pathology ranking on the wire.
	plain, err := client.Classify(context.Background(), ClassifyRequest{
		Events: []string{attrHITM, attrMiss}, Vector: []float64{0.6, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Pathologies != nil {
		t.Errorf("plain classify grew a pathologies field: %v", plain.Pathologies)
	}
	if plain.Class != "bad-fs" {
		t.Errorf("plain classify: %q, want bad-fs", plain.Class)
	}
}

// TestClassifyEnsembleRejectsForeignKey pins that the two key families
// do not decode into each other: asking the ensemble path for a
// single-detector key, or the single-detector path for an ensemble key,
// is a client error, not a silent fallback.
func TestClassifyEnsembleRejectsForeignKey(t *testing.T) {
	_, client := newEnsembleTestServer(t)
	req := ClassifyRequest{
		Detector: TrainSpec{Quick: true, Seed: 1}.Key(),
		Events:   tinyWideAttrs, Vector: tinyWideVector("good", 3),
	}
	_, err := client.ClassifyEnsemble(context.Background(), req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("got %v, want a 400 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "not an ensemble key") {
		t.Errorf("error %q does not name the key family mismatch", apiErr.Message)
	}

	// The other direction: a single-detector classify naming an
	// ensemble key.
	req = ClassifyRequest{
		Detector: EnsembleSpec{Quick: true, Seed: 1}.Key(),
		Events:   []string{attrHITM, attrMiss}, Vector: []float64{0.6, 0.05},
	}
	_, err = client.Classify(context.Background(), req)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("plain classify with an ensemble key: got %v, want a 400 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "is an ensemble key") {
		t.Errorf("error %q does not name the key family mismatch", apiErr.Message)
	}
}

// TestEnsembleRegistryWarmStartAndQuarantine exercises the registry's
// disk side for ensemble keys: first Get trains and persists, a fresh
// registry over the same dir warm-starts without training, and a
// corrupted model file is quarantined and retrained instead of
// poisoning the server.
func TestEnsembleRegistryWarmStartAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	det := tinyDetector(t)
	ens := tinyEnsemble(t)
	var trains atomic.Int64
	newReg := func(m *Metrics) *Registry {
		reg := NewRegistry(RegistryConfig{
			Dir:     dir,
			Metrics: m,
			Train:   func(TrainSpec) (*core.Detector, error) { return det, nil },
		})
		reg.trainEnsemble = func(EnsembleSpec, *core.Detector) (*ensemble.Detector, error) {
			trains.Add(1)
			return ens, nil
		}
		return reg
	}
	ctx := context.Background()
	key := EnsembleSpec{Quick: true, Seed: 1}.Key()

	if _, _, err := newReg(nil).Ensemble(ctx, key); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Fatalf("trained %d times, want 1", n)
	}
	path := filepath.Join(dir, "ensemble-quick=true,seed=1.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("model file not persisted: %v", err)
	}

	got, _, err := newReg(nil).Ensemble(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Fatalf("warm start trained anyway (%d trainings)", n)
	}
	if res, _ := got.ClassifyRobust(vecSample(tinyWideAttrs, tinyWideVector("bad-fs", 7))); res.Class != "bad-fs" {
		t.Errorf("warm-started ensemble classifies bad-fs vector as %q", res.Class)
	}

	if err := os.WriteFile(path, []byte("{definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	if _, _, err := newReg(m).Ensemble(ctx, key); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 2 {
		t.Fatalf("corrupt file: trained %d times total, want 2 (retrain)", n)
	}
	if _, err := os.Stat(quarantinePath(path)); err != nil {
		t.Errorf("corrupt model not quarantined: %v", err)
	}
	if m.Counter(mQuarantined) != 1 {
		t.Errorf("quarantine counter %d, want 1", m.Counter(mQuarantined))
	}
	// The quarantined file was replaced by a fresh persist.
	if blob, err := os.ReadFile(path); err != nil || len(blob) == 0 {
		t.Errorf("retrained model not re-persisted: %v", err)
	}
}

// TestEnsembleReusesRegistryBase pins the cold-start cost: a default
// classify followed by an ?ensemble=1 classify trains the base detector
// once, and the ensemble trainer receives the registry's detector for
// the spec's train: key rather than training its own.
func TestEnsembleReusesRegistryBase(t *testing.T) {
	det := tinyDetector(t)
	ens := tinyEnsemble(t)
	var trains atomic.Int64
	var gotBase atomic.Pointer[core.Detector]
	s, client := newTestServer(t, Config{
		Train: func(TrainSpec) (*core.Detector, error) {
			trains.Add(1)
			return det, nil
		},
		TrainEnsemble: func(_ EnsembleSpec, base *core.Detector) (*ensemble.Detector, error) {
			gotBase.Store(base)
			return ens, nil
		},
	})
	ctx := context.Background()
	if _, err := client.Classify(ctx, ClassifyRequest{
		Events: []string{attrHITM, attrMiss}, Vector: []float64{0.6, 0.05},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ClassifyEnsemble(ctx, ClassifyRequest{
		Events: tinyWideAttrs, Vector: tinyWideVector("good", 2),
	}); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Errorf("base detector trained %d times, want 1", n)
	}
	regDet, hit, err := s.Registry().Get(ctx, TrainSpec{Quick: true, Seed: 1}.Key())
	if err != nil || !hit {
		t.Fatalf("registry base: hit=%v err=%v", hit, err)
	}
	if base := gotBase.Load(); base != regDet {
		t.Errorf("ensemble trainer got base %p, want the registry's detector %p", base, regDet)
	}
}

// TestDetectorsListIncludesEnsembles pins that GET /v1/detectors shows
// resident ensembles beside the single detectors, and that the disk
// listing reverses the ensemble key mangling.
func TestDetectorsListIncludesEnsembles(t *testing.T) {
	ens := tinyEnsemble(t)
	dir := t.TempDir()
	_, client := newTestServer(t, Config{
		RegistryDir:   dir,
		TrainEnsemble: func(EnsembleSpec, *core.Detector) (*ensemble.Detector, error) { return ens, nil },
	})
	key := EnsembleSpec{Quick: true, Seed: 1}.Key()
	if _, err := client.ClassifyEnsemble(context.Background(), ClassifyRequest{
		Events: tinyWideAttrs, Vector: tinyWideVector("good", 1),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Detectors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range resp.Detectors {
		if d.Key == key {
			found = true
			if d.State != "ready" {
				t.Errorf("ensemble entry state %q, want ready", d.State)
			}
		}
	}
	if !found {
		t.Errorf("detector listing %v misses the resident ensemble %q", resp.Detectors, key)
	}
	diskHasKey := false
	for _, k := range resp.Disk {
		if k == key {
			diskHasKey = true
		}
	}
	if !diskHasKey {
		t.Errorf("disk listing %v misses the persisted ensemble %q", resp.Disk, key)
	}
}
