package core

import (
	"strings"
	"testing"

	"fsml/internal/miniprog"
	"fsml/internal/pmu"
)

func tinyGrids() (Grid, Grid) {
	a := Grid{
		Sizes:    []int{20000},
		MatSizes: []int{96},
		Threads:  []int{4},
		Repeats:  map[miniprog.Mode]int{miniprog.Good: 1, miniprog.BadFS: 1, miniprog.BadMA: 1},
		Seed:     41,
	}
	b := Grid{
		Sizes:    []int{60000},
		MatSizes: []int{96},
		Threads:  []int{1},
		Repeats:  map[miniprog.Mode]int{miniprog.Good: 1, miniprog.BadMA: 1},
		Seed:     42,
	}
	return a, b
}

func tinySelection() SelectionConfig {
	return SelectionConfig{
		Ratio: 2.0, Majority: 0.5, MinRate: 1e-6,
		Sizes: []int{20000}, MatSize: 96, Threads: []int{4}, Seed: 43,
	}
}

// TestTrainOnPlatformSandyBridge runs the full steps 2-6 portability
// workflow on the SNB model and checks the detector works in its own
// event vocabulary.
func TestTrainOnPlatformSandyBridge(t *testing.T) {
	ga, gb := tinyGrids()
	pd, err := TrainOnPlatform(pmu.SandyBridge(), tinySelection(), ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Platform.Name != "Sandy Bridge EP" {
		t.Errorf("platform name %q", pd.Platform.Name)
	}
	if len(pd.Selection.Selected) < 5 {
		t.Fatalf("selected only %d events\n%s", len(pd.Selection.Selected), pd.Selection)
	}
	hasXSNP := false
	for _, a := range pd.Detector.Tree.Attrs {
		if strings.Contains(a, "XSNP") {
			hasXSNP = true
		}
		if strings.HasPrefix(a, "SNOOP_RESPONSE") {
			t.Errorf("SNB detector carries a Westmere attribute %q", a)
		}
	}
	if !hasXSNP {
		t.Errorf("SNB detector has no XSNP-family attribute: %v", pd.Detector.Tree.Attrs)
	}
	// Classify an unseen bad-fs run measured with the platform collector.
	c := NewPlatformCollector(pd.Platform, pd.Selection.Selected)
	kernels, err := miniprog.Build(miniprog.Spec{Program: "padding", Size: 30000, Threads: 4, Mode: miniprog.BadFS, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	obs := c.Measure("probe", 77, kernels)
	class, err := pd.Detector.ClassifyObservation(obs)
	if err != nil {
		t.Fatal(err)
	}
	if class != "bad-fs" {
		t.Errorf("SNB detector classified packed-counter workload %q", class)
	}
}

func TestClassifyErrorsOnForeignSample(t *testing.T) {
	ga, gb := tinyGrids()
	pd, err := TrainOnPlatform(pmu.SandyBridge(), tinySelection(), ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	// A Westmere Table 2 sample lacks the SNB events.
	wc := NewCollector()
	kernels, _ := miniprog.Build(miniprog.Spec{Program: "psums", Size: 5000, Threads: 2, Mode: miniprog.Good, Seed: 1})
	obs := wc.Measure("w", 1, kernels)
	if _, err := pd.Detector.ClassifyObservation(obs); err == nil {
		t.Errorf("SNB detector accepted a Westmere sample")
	}
}

func TestNewPlatformCollectorDefaults(t *testing.T) {
	p := pmu.Westmere()
	c := NewPlatformCollector(p, nil)
	if len(c.Events) != 16 {
		t.Errorf("Westmere default events = %d, want the Table 2 reference", len(c.Events))
	}
	snb := pmu.SandyBridge()
	c2 := NewPlatformCollector(snb, nil)
	if len(c2.Events) != len(snb.Catalogue) {
		t.Errorf("SNB without reference should fall back to the catalogue")
	}
}

func TestBuildDatasetAttrsErrors(t *testing.T) {
	c := NewCollector()
	obs, err := c.MeasureMiniProgram(miniprog.Spec{Program: "psums", Size: 5000, Threads: 2, Mode: miniprog.Good, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDatasetAttrs([]Observation{obs}, []string{"NO.SUCH.EVENT"}); err == nil {
		t.Errorf("unknown attribute accepted")
	}
	obs.Label = ""
	if _, err := BuildDatasetAttrs([]Observation{obs}, []string{"SNOOP_RESPONSE.HITM"}); err == nil {
		t.Errorf("unlabeled observation accepted")
	}
}

func TestMajorityEmpty(t *testing.T) {
	cls, hist := Majority(nil)
	if cls != "" || len(hist) != 0 {
		t.Errorf("Majority(nil) = %q, %v", cls, hist)
	}
}

// TestIterativeTrain grows the mini-program set one program at a time
// (the §2.1 iteration) and checks the trajectory: classes accumulate,
// accuracy ends high, and the final detector is usable.
func TestIterativeTrain(t *testing.T) {
	c := NewCollector()
	ga, gb := tinyGrids()
	res, err := c.IterativeTrain(ga, gb, 0.95, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no iteration steps")
	}
	last := res.Steps[len(res.Steps)-1]
	if last.CVAccuracy < 0.9 {
		t.Errorf("final accuracy %.3f\n%s", last.CVAccuracy, res)
	}
	if !res.Reached {
		t.Errorf("target never reached\n%s", res)
	}
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Instances <= res.Steps[i-1].Instances {
			t.Errorf("instances did not grow at round %d", i+1)
		}
	}
	if res.Detector == nil || res.Detector.Tree == nil {
		t.Fatal("no final detector")
	}
	// The early-stopped set must still detect the basics.
	obs, err := c.MeasureMiniProgram(miniprog.Spec{Program: "pdot", Size: 30000, Threads: 6, Mode: miniprog.BadFS, Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	if class, err := res.Detector.ClassifyObservation(obs); err != nil || class != "bad-fs" {
		t.Errorf("iteratively trained detector classified %q, %v", class, err)
	}
	if !strings.Contains(res.String(), "Iterative training") {
		t.Errorf("render broken")
	}
}

func TestIterativeTrainValidation(t *testing.T) {
	c := NewCollector()
	ga, gb := tinyGrids()
	if _, err := c.IterativeTrain(ga, gb, 1.5, 5); err == nil {
		t.Errorf("target > 1 accepted")
	}
}
