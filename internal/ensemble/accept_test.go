package ensemble_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/exps"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/pmu"
)

// The simulation-backed acceptance path: train the ensemble on the
// widened quick grids around the quick lab's 3-class detector, then
// classify one held-out workload per pathology. Everything here must be
// bit-identical across parallelism, which the golden file pins.

var updateGolden = flag.Bool("update", false, "rewrite golden files")

var acceptance struct {
	once sync.Once
	base *core.Detector
	j1   *ensemble.Detector
	j8   *ensemble.Detector
	err  error
}

func trainAcceptance(t *testing.T) (*core.Detector, *ensemble.Detector, *ensemble.Detector) {
	t.Helper()
	acceptance.once.Do(func() {
		base, err := exps.NewQuickLab().Detector()
		if err != nil {
			acceptance.err = err
			return
		}
		acceptance.base = base
		for _, par := range []int{1, 8} {
			cfg := ensemble.TrainConfig{Quick: true, Seed: 1, Parallelism: par}
			det, err := ensemble.TrainContext(context.Background(), cfg, base)
			if err != nil {
				acceptance.err = err
				return
			}
			if par == 1 {
				acceptance.j1 = det
			} else {
				acceptance.j8 = det
			}
		}
	})
	if acceptance.err != nil {
		t.Fatalf("acceptance training: %v", acceptance.err)
	}
	return acceptance.base, acceptance.j1, acceptance.j8
}

// heldOutCases are one workload per pathology, at sizes, thread counts
// and seeds the quick training grids never sweep.
type heldOutCase struct {
	spec miniprog.Spec
	numa bool
	want string
}

func heldOutCases() []heldOutCase {
	return []heldOutCase{
		{miniprog.Spec{Program: "pdot", Size: 45000, Threads: 4, Mode: miniprog.Good, Seed: 777}, false, "good"},
		{miniprog.Spec{Program: "pdot", Size: 45000, Threads: 4, Mode: miniprog.BadFS, Seed: 778}, false, "bad-fs"},
		{miniprog.Spec{Program: "pdot", Size: 45000, Threads: 4, Mode: miniprog.BadMA, Seed: 779}, false, "bad-ma"},
		{miniprog.Spec{Program: "tlbwalk", Size: 45000, Threads: 4, Mode: miniprog.TLBThrash, Seed: 780}, false, "tlb-thrash"},
		{miniprog.Spec{Program: "numaping", Size: 45000, Threads: 4, Mode: miniprog.NUMARemote, Seed: 781}, true, "numa-remote"},
		{miniprog.Spec{Program: "bwsat", Size: 45000, Threads: 4, Mode: miniprog.BWSat, Seed: 782}, false, "bw-saturated"},
	}
}

func measureHeldOut(t *testing.T, c heldOutCase) core.Observation {
	t.Helper()
	m := machine.DefaultConfig()
	if c.numa {
		m = ensemble.NUMAMachine()
	}
	col := &core.Collector{Machine: m, PMU: pmu.DefaultConfig(), Events: pmu.EnsembleEvents()}
	obs, err := col.MeasureMiniProgram(c.spec)
	if err != nil {
		t.Fatalf("measuring %s: %v", c.spec.Program, err)
	}
	return obs
}

// verdict is the golden-file record for one held-out classification.
type verdict struct {
	Workload    string                `json:"workload"`
	Want        string                `json:"want"`
	Class       string                `json:"class"`
	Confidence  float64               `json:"confidence"`
	Degraded    bool                  `json:"degraded"`
	Pathologies []core.PathologyScore `json:"pathologies"`
}

func classifyHeldOut(t *testing.T, det *ensemble.Detector) []verdict {
	t.Helper()
	var out []verdict
	for _, c := range heldOutCases() {
		obs := measureHeldOut(t, c)
		res, err := det.ClassifyRobust(obs.Sample)
		if err != nil {
			t.Fatalf("classifying %s: %v", obs.Desc, err)
		}
		out = append(out, verdict{
			Workload:    obs.Desc,
			Want:        c.want,
			Class:       res.Class,
			Confidence:  res.Confidence,
			Degraded:    res.Degraded,
			Pathologies: res.Pathologies,
		})
	}
	return out
}

// TestAcceptanceHeldOutPathologies is the issue's acceptance criterion:
// the ensemble, trained on the widened quick grids, must top-rank the
// correct label for one held-out workload per pathology.
func TestAcceptanceHeldOutPathologies(t *testing.T) {
	_, det, _ := trainAcceptance(t)
	for _, v := range classifyHeldOut(t, det) {
		if v.Class != v.Want {
			t.Errorf("%s: top-ranked %q (%.3f), want %q; ranking %v", v.Workload, v.Class, v.Confidence, v.Want, v.Pathologies)
		}
	}
}

// TestEnsembleDeterministicAcrossParallelism pins byte-identical models
// and verdicts at -j 1 vs -j 8, against each other and the golden file.
func TestEnsembleDeterministicAcrossParallelism(t *testing.T) {
	_, j1, j8 := trainAcceptance(t)
	blob1, err := j1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	blob8, err := j8.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob1) != string(blob8) {
		t.Fatal("-j 1 and -j 8 trainings serialized differently")
	}

	v1, err := json.MarshalIndent(classifyHeldOut(t, j1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	v8, err := json.MarshalIndent(classifyHeldOut(t, j8), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(v1) != string(v8) {
		t.Fatal("-j 1 and -j 8 verdicts differ")
	}

	golden := filepath.Join("testdata", "ensemble_verdicts.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(v1, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to regenerate): %v", err)
	}
	if string(want) != string(v1)+"\n" {
		t.Errorf("verdicts differ from %s (rerun with -update if the change is intended)\ngot:\n%s", golden, v1)
	}
}

// TestBaseMemberMatchesStandaloneOnLegacyGrids is the differential
// satellite: on legacy-grid samples the ensemble's 3-class member —
// including after a serialization round-trip — agrees exactly with the
// standalone detector.
func TestBaseMemberMatchesStandaloneOnLegacyGrids(t *testing.T) {
	base, det, _ := trainAcceptance(t)
	if det.Base != base {
		t.Fatal("ensemble must embed the very base detector it was trained around")
	}
	path := filepath.Join(t.TempDir(), "ens.json")
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ensemble.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	col := &core.Collector{Machine: machine.DefaultConfig(), PMU: pmu.DefaultConfig()}
	grid := core.Grid{
		Sizes:   []int{30000},
		Threads: []int{3},
		Repeats: map[miniprog.Mode]int{miniprog.Good: 1, miniprog.BadFS: 1, miniprog.BadMA: 1},
		Seed:    4242,
	}
	var progs []miniprog.Program
	for _, p := range miniprog.MultiThreadedSet() {
		if p.Name == "pdot" || p.Name == "padding" {
			progs = append(progs, p)
		}
	}
	obs, err := col.Collect(progs, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) == 0 {
		t.Fatal("no legacy observations")
	}
	for _, o := range obs {
		want, err := base.ClassifyRobust(o.Sample)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Base.ClassifyRobust(o.Sample)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Confidence != want.Confidence || got.Degraded != want.Degraded {
			t.Errorf("%s: round-tripped base member (%s %.6f) != standalone (%s %.6f)",
				o.Desc, got.Class, got.Confidence, want.Class, want.Confidence)
		}
	}
}
