package core

import (
	"errors"
	"strings"
	"testing"

	"fsml/internal/cache"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/ml"
	"fsml/internal/pmu"
)

// testGrid is a reduced Part A grid that keeps tests fast.
func testGrid() Grid {
	return Grid{
		Sizes:    []int{30000, 60000},
		MatSizes: []int{96},
		Threads:  []int{3, 6},
		Repeats: map[miniprog.Mode]int{
			miniprog.Good:  2,
			miniprog.BadFS: 1,
			miniprog.BadMA: 1,
		},
		Seed: 11,
	}
}

func testGridB() Grid {
	return Grid{
		Sizes:    []int{2000, 60000, 120000},
		MatSizes: []int{96},
		Threads:  []int{1},
		Repeats: map[miniprog.Mode]int{
			miniprog.Good:  1,
			miniprog.BadMA: 1,
		},
		Seed: 12,
	}
}

// collectSmall produces a filtered training set from the reduced grids.
func collectSmall(t *testing.T) ([]Observation, FilterReport, FilterReport) {
	t.Helper()
	c := NewCollector()
	partA, err := c.Collect(miniprog.MultiThreadedSet(), testGrid())
	if err != nil {
		t.Fatal(err)
	}
	partB, err := c.Collect(miniprog.SequentialSet(), testGridB())
	if err != nil {
		t.Fatal(err)
	}
	keptA, repA := FilterObservations(partA, DefaultFilter())
	cfgB := DefaultFilter()
	cfgB.DropWeakGood = true
	keptB, repB := FilterObservations(partB, cfgB)
	return append(keptA, keptB...), repA, repB
}

func TestMeasureMiniProgramLabels(t *testing.T) {
	c := NewCollector()
	obs, err := c.MeasureMiniProgram(miniprog.Spec{Program: "pdot", Size: 5000, Threads: 4, Mode: miniprog.BadFS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Label != "bad-fs" {
		t.Errorf("label = %q", obs.Label)
	}
	if obs.Sample.Instructions == 0 || obs.Result.Instructions == 0 {
		t.Errorf("observation carries no instruction counts")
	}
	if obs.Seconds <= 0 {
		t.Errorf("Seconds = %v", obs.Seconds)
	}
}

func TestMeasureIsDeterministic(t *testing.T) {
	c := NewCollector()
	spec := miniprog.Spec{Program: "psums", Size: 10000, Threads: 4, Mode: miniprog.Good, Seed: 3}
	a, _ := c.MeasureMiniProgram(spec)
	b, _ := c.MeasureMiniProgram(spec)
	for i := range a.Sample.Counts {
		if a.Sample.Counts[i] != b.Sample.Counts[i] {
			t.Fatalf("same spec measured differently at event %d", i)
		}
	}
}

func TestCollectShape(t *testing.T) {
	c := NewCollector()
	obs, err := c.Collect(miniprog.MultiThreadedSet()[:2], Grid{
		Sizes:   []int{5000},
		Threads: []int{3},
		Repeats: map[miniprog.Mode]int{miniprog.Good: 2, miniprog.BadFS: 1},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 programs x 1 size x 1 thread count x (2 good + 1 bad-fs) = 6.
	if len(obs) != 6 {
		t.Fatalf("collected %d observations, want 6", len(obs))
	}
	counts := map[string]int{}
	for _, o := range obs {
		counts[o.Label]++
	}
	if counts["good"] != 4 || counts["bad-fs"] != 2 {
		t.Errorf("label histogram %v", counts)
	}
}

func TestFilterDropsWeakBadMA(t *testing.T) {
	mk := func(desc, label string, secs float64) Observation {
		return Observation{Desc: desc, Label: label, Seconds: secs}
	}
	obs := []Observation{
		mk("p/size=1/threads=1/rep=0", "good", 1.0),
		mk("p/size=1/threads=1/rep=0", "bad-ma", 1.05), // too close to good
		mk("p/size=2/threads=1/rep=0", "good", 1.0),
		mk("p/size=2/threads=1/rep=0", "bad-ma", 3.0), // convincing
	}
	kept, rep := FilterObservations(obs, FilterConfig{MinSlowdown: 1.25})
	if rep.Removed["bad-ma"] != 1 || rep.Kept["bad-ma"] != 1 {
		t.Errorf("filter report %+v", rep)
	}
	if rep.Kept["good"] != 2 {
		t.Errorf("good instances should survive without DropWeakGood: %+v", rep)
	}
	for _, o := range kept {
		if o.Label == "bad-ma" && o.Seconds < 2 {
			t.Errorf("weak bad-ma instance survived")
		}
	}
}

func TestFilterDropWeakGood(t *testing.T) {
	mk := func(desc, label string, secs float64) Observation {
		return Observation{Desc: desc, Label: label, Seconds: secs}
	}
	obs := []Observation{
		mk("p/size=1/rep=0", "good", 1.0),
		mk("p/size=1/rep=0", "bad-ma", 1.01),
		mk("p/size=2/rep=0", "good", 1.0),
		mk("p/size=2/rep=0", "bad-ma", 2.0),
	}
	_, rep := FilterObservations(obs, FilterConfig{MinSlowdown: 1.25, DropWeakGood: true})
	if rep.Removed["good"] != 1 {
		t.Errorf("DropWeakGood removed %d good, want 1", rep.Removed["good"])
	}
	if rep.Kept["good"] != 1 || rep.Kept["bad-ma"] != 1 {
		t.Errorf("kept %+v", rep.Kept)
	}
}

// TestEndToEndPipeline is the headline integration test: collect, filter,
// train, cross-validate, and inspect the learned tree. It asserts the
// three properties the paper reports: high CV accuracy (99.4% in Table 4),
// a compact tree (Figure 2: 6 leaves / 11 nodes), and SNOOP_RESPONSE.HITM
// as the bad-fs discriminator at the root region.
func TestEndToEndPipeline(t *testing.T) {
	obs, _, _ := collectSmall(t)
	d, err := BuildDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() < 100 {
		t.Fatalf("training set too small: %d", d.Len())
	}
	det, err := TrainDetector(d)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := ml.CrossValidate(ml.NewC45(ml.DefaultC45()), d, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() < 0.95 {
		t.Errorf("10-fold CV accuracy = %.3f, want >= 0.95\n%s", conf.Accuracy(), conf)
	}
	if det.Tree.Leaves() > 16 {
		t.Errorf("tree has %d leaves; paper's has 6\n%s", det.Tree.Leaves(), det.Tree)
	}
	// HITM must be among the attributes the tree uses, and the bad-fs
	// side of the split must be reached through it.
	usesHITM := false
	for _, a := range det.Tree.UsedAttrs() {
		if det.Tree.Attrs[a] == "SNOOP_RESPONSE.HITM" {
			usesHITM = true
		}
	}
	if !usesHITM {
		t.Errorf("tree does not test SNOOP_RESPONSE.HITM:\n%s", det.Tree)
	}
}

// TestDetectorGeneralizes trains on the small grid and classifies unseen
// configurations (different sizes, seeds and thread counts).
func TestDetectorGeneralizes(t *testing.T) {
	obs, _, _ := collectSmall(t)
	d, err := BuildDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainDetector(d)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	cases := []struct {
		spec miniprog.Spec
		want string
	}{
		{miniprog.Spec{Program: "pdot", Size: 90000, Threads: 8, Mode: miniprog.BadFS, Seed: 999}, "bad-fs"},
		{miniprog.Spec{Program: "pdot", Size: 90000, Threads: 8, Mode: miniprog.Good, Seed: 999}, "good"},
		{miniprog.Spec{Program: "psumv", Size: 150000, Threads: 5, Mode: miniprog.BadMA, Seed: 998}, "bad-ma"},
		{miniprog.Spec{Program: "false1", Size: 40000, Threads: 10, Mode: miniprog.BadFS, Seed: 997}, "bad-fs"},
		{miniprog.Spec{Program: "sread", Size: 300000, Threads: 1, Mode: miniprog.BadMA, Seed: 996}, "bad-ma"},
		{miniprog.Spec{Program: "swrite", Size: 150000, Threads: 1, Mode: miniprog.Good, Seed: 995}, "good"},
	}
	for _, tc := range cases {
		o, err := c.MeasureMiniProgram(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := det.ClassifyObservation(o)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s/%s size=%d threads=%d: classified %s, want %s",
				tc.spec.Program, tc.spec.Mode, tc.spec.Size, tc.spec.Threads, got, tc.want)
		}
	}
}

func TestDetectorRoundTrip(t *testing.T) {
	obs, _, _ := collectSmall(t)
	d, _ := BuildDataset(obs)
	det, err := TrainDetector(d)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := det.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDetector(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Instances[:20] {
		if got.FlatTree().Predict(in.Features) != det.FlatTree().Predict(in.Features) {
			t.Fatalf("decoded detector predicts differently")
		}
	}
}

func TestDecodeDetectorRejectsGarbage(t *testing.T) {
	for _, blob := range []string{"junk", `{"format":"wrong"}`, `{"format":"fsml-detector-v1","tree":{"attrs":[""],"root":{"leaf":true,"class":"good"}}}`, `{"format":"fsml-detector-v1","tree":{"attrs":[],"root":{"leaf":true,"class":"good"}}}`} {
		if _, err := DecodeDetector([]byte(blob)); err == nil {
			t.Errorf("DecodeDetector accepted %q", blob)
		}
	}
}

func TestDecodeDetectorFormatVersion(t *testing.T) {
	tree := `"tree":{"attrs":["a"],"root":{"leaf":true,"class":"good"}}`
	// Version skew in either direction and foreign formats are typed
	// *FormatError with the found format/version preserved, so a caller
	// warm-loading from disk can say exactly what is wrong with the file.
	for _, tc := range []struct {
		blob    string
		version int
	}{
		{`{"format":"fsml-detector","version":1,` + tree + `}`, 1},
		{`{"format":"fsml-detector","version":99,` + tree + `}`, 99},
		{`{"format":"fsml-detector",` + tree + `}`, 0},
		{`{"format":"mystery-model","version":2,` + tree + `}`, 2},
	} {
		_, err := DecodeDetector([]byte(tc.blob))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("DecodeDetector(%s) = %v, want *FormatError", tc.blob, err)
		}
		if fe.Version != tc.version || fe.WantVersion != ModelVersion {
			t.Errorf("FormatError = %+v, want Version=%d WantVersion=%d", fe, tc.version, ModelVersion)
		}
		if !strings.Contains(fe.Error(), "fsml train") {
			t.Errorf("FormatError message %q is not actionable", fe.Error())
		}
	}
	// A legacy v1 file (old tag, no version field) still decodes: the
	// tree shape never changed.
	legacy := `{"format":"fsml-detector-v1",` + tree + `}`
	if _, err := DecodeDetector([]byte(legacy)); err != nil {
		t.Errorf("DecodeDetector(legacy v1) = %v, want nil", err)
	}
}

func TestMajorityVote(t *testing.T) {
	cases := []CaseResult{
		{Class: "bad-fs"}, {Class: "bad-fs"}, {Class: "good"},
	}
	cls, hist := Majority(cases)
	if cls != "bad-fs" || hist["bad-fs"] != 2 {
		t.Errorf("Majority = %q, %v", cls, hist)
	}
	// Tie breaks toward good.
	cls, _ = Majority([]CaseResult{{Class: "good"}, {Class: "bad-fs"}})
	if cls != "good" {
		t.Errorf("tie broke to %q, want good", cls)
	}
	if s := FormatHistogram(hist); !strings.Contains(s, "2/3 bad-fs") {
		t.Errorf("FormatHistogram = %q", s)
	}
}

func TestSummarize(t *testing.T) {
	rep := FilterReport{
		Kept:    map[string]int{"good": 324, "bad-fs": 216, "bad-ma": 113},
		Removed: map[string]int{"bad-ma": 22},
	}
	s := Summarize("Part A", rep)
	if s.Total() != 653 || s.RemovedMA != 22 {
		t.Errorf("Summarize = %+v", s)
	}
}

// TestSelectEventsFindsTheSignal runs the §2.3 procedure on a reduced
// grid and checks the paper's two qualitative outcomes: HITM and the
// other Table 2 coherence events are selected, and the noisy uncore HITM
// candidate plus pure-rate events like branches are not.
func TestSelectEventsFindsTheSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("selection sweep is expensive")
	}
	c := NewCollector()
	cfg := SelectionConfig{
		Ratio: 2.0, Majority: 0.5, MinRate: 1e-6,
		Sizes: []int{40000}, MatSize: 96, Threads: []int{6, 12}, Seed: 9,
	}
	rep, err := c.SelectEvents(pmu.Catalogue(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	selected := map[string]int{}
	for _, v := range rep.Verdicts {
		selected[v.Event.Name] = v.Phase
	}
	if selected["SNOOP_RESPONSE.HITM"] != 1 {
		t.Errorf("HITM not selected in phase 1\n%s", rep)
	}
	if selected["L2_WRITE.RFO.S_STATE"] == 0 && selected["L2_DATA_RQSTS.DEMAND.I_STATE"] == 0 {
		t.Errorf("no RFO/L2-demand coherence event selected\n%s", rep)
	}
	if selected["BR_INST_RETIRED.ALL"] != 0 {
		t.Errorf("branch count selected; it should not discriminate\n%s", rep)
	}
	if len(rep.Selected) < 8 || len(rep.Selected) > 30 {
		t.Errorf("selected %d events; want a Table-2-like set\n%s", len(rep.Selected), rep)
	}
	// The normalizer is last.
	if rep.Selected[len(rep.Selected)-1].Ev != cache.EvInstructions {
		t.Errorf("last selected event is not the instruction counter")
	}
}

func TestSelectEventsValidatesConfig(t *testing.T) {
	c := NewCollector()
	if _, err := c.SelectEvents(pmu.Catalogue(), SelectionConfig{Ratio: 0.5}); err == nil {
		t.Errorf("ratio <= 1 accepted")
	}
}

func TestCollectorUsesMonitorOverhead(t *testing.T) {
	// Measure must run with monitoring enabled (that is the deployment
	// the <2% overhead claim describes).
	c := NewCollector()
	obs, err := c.MeasureMiniProgram(miniprog.Spec{Program: "psums", Size: 20000, Threads: 2, Mode: miniprog.Good, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// An unmonitored run of the same spec is very slightly faster.
	kernels, _ := miniprog.Build(miniprog.Spec{Program: "psums", Size: 20000, Threads: 2, Mode: miniprog.Good, Seed: 8})
	mcfg := machine.DefaultConfig()
	mcfg.Seed = 8 ^ 0x5151
	m := machine.New(mcfg)
	res := m.Run(kernels)
	if obs.Result.WallCycles <= res.WallCycles {
		t.Errorf("monitored run (%d cycles) not slower than unmonitored (%d)", obs.Result.WallCycles, res.WallCycles)
	}
	overhead := float64(obs.Result.WallCycles-res.WallCycles) / float64(res.WallCycles)
	if overhead > 0.02 {
		t.Errorf("monitoring overhead %.2f%% exceeds the paper's 2%%", overhead*100)
	}
}
