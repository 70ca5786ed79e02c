package core

import (
	"os"
	"path/filepath"
	"testing"

	"fsml/internal/pmu"
)

// FuzzDecodeDetector is the robustness harness of the model-upload
// surface: arbitrary bytes never panic DecodeDetector, and every model
// it accepts classifies to a finite confidence in [0,1] — on a clean
// sample and under each single-event suspect mask, the degraded walk
// that blends subtrees by training population.
func FuzzDecodeDetector(f *testing.F) {
	if blob, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quick_detector.golden.json")); err == nil {
		f.Add(blob)
	}
	f.Add([]byte(`junk`))
	f.Add([]byte(`{"format":"fsml-detector-v1","tree":{"attrs":["A"],"root":{"leaf":true,"class":"good"}}}`))
	// Two leaves whose populations sum past the largest float64: a blend
	// over them divides by +Inf and answers a NaN confidence.
	f.Add([]byte(`{"format":"fsml-detector","version":2,"tree":{"attrs":["A","B"],"root":{"leaf":false,"attr":0,"threshold":0.5,"n":2,` +
		`"left":{"leaf":true,"class":"good","n":1e308},"right":{"leaf":true,"class":"bad-fs","n":1e308}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		det, err := DecodeDetector(data)
		if err != nil {
			return
		}
		attrs := det.Tree.Attrs
		counts := make([]float64, len(attrs))
		for i := range counts {
			counts[i] = float64(i%5) * 0.1
		}
		classify := func(flags []pmu.CountFlag) {
			rr, err := det.ClassifyRobust(pmu.Sample{Names: attrs, Counts: counts, Instructions: 1, Flags: flags})
			if err != nil {
				t.Fatalf("decoded model failed to classify (flags %v): %v", flags, err)
			}
			if !(rr.Confidence >= 0 && rr.Confidence <= 1) {
				t.Fatalf("confidence %v outside [0,1] (flags %v)", rr.Confidence, flags)
			}
		}
		classify(nil)
		for i := range attrs {
			flags := make([]pmu.CountFlag, len(attrs))
			flags[i] = pmu.FlagStuck
			classify(flags)
		}
	})
}
