package ensemble

import (
	"strings"
	"testing"

	"fsml/internal/pmu"
)

// FuzzParseEnsembleSpec asserts the parser never panics, never accepts
// an invalid spec, and that accepted specs survive a String round-trip.
func FuzzParseEnsembleSpec(f *testing.F) {
	f.Add("")
	f.Add("members=5,sample=0.8,seed=42")
	f.Add("members=64,sample=1")
	f.Add("sample=0.000001")
	f.Add(" members = 3 , seed = 0 ")
	f.Add("members=3,,")
	f.Add("sample=nan")
	f.Add("seed=18446744073709551615")
	f.Add("members=5=6")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseEnsembleSpec(in)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseEnsembleSpec(%q) accepted invalid spec %+v: %v", in, spec, verr)
		}
		again, err := ParseEnsembleSpec(spec.String())
		if err != nil {
			t.Fatalf("round-trip of %q (%q) failed: %v", in, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("round-trip of %q: %+v != %+v", in, again, spec)
		}
	})
}

// tinyEnsemble is a minimal decodable ensemble: two classes over two
// attributes, one member stump and a base stump.
const tinyEnsemble = `{"format":"fsml-ensemble-v1","classes":["a","b"],"attrs":["A","B"],` +
	`"members":[{"class":"a","weight":0.9,"tree":{"attrs":["A"],"root":{"leaf":false,"attr":0,"threshold":0.5,"n":4,` +
	`"left":{"leaf":true,"class":"a","n":3},"right":{"leaf":true,"class":"~rest","n":1}}}}],` +
	`"base_tree":{"attrs":["A","B"],"root":{"leaf":false,"attr":1,"threshold":0.5,"n":4,` +
	`"left":{"leaf":true,"class":"a","n":2},"right":{"leaf":true,"class":"b","n":2}}},"base_weight":0.8}`

// hugeWeights is tinyEnsemble with two members on class "a" whose
// weights sum past the largest float64: the class score divides +Inf
// by +Inf and the verdict's confidence is NaN.
var hugeWeights = strings.Replace(strings.Replace(tinyEnsemble, `"weight":0.9`, `"weight":1e308`, 1),
	`"members":[{`, `"members":[{"class":"a","weight":1e308,"tree":{"attrs":["A"],"root":{"leaf":true,"class":"a","n":1}}},{`, 1)

// FuzzDecodeEnsemble is the robustness harness of the ensemble load
// path: arbitrary bytes never panic Decode, and every ensemble it
// accepts ranks a sample over its attributes with finite scores in
// [0,1] — clean and under each single-event suspect mask.
func FuzzDecodeEnsemble(f *testing.F) {
	f.Add([]byte(tinyEnsemble))
	f.Add([]byte(`junk`))
	f.Add([]byte(`{"format":"fsml-ensemble-v1","classes":["a","b"],"members":[]}`))
	f.Add([]byte(hugeWeights))
	f.Add([]byte(strings.Replace(tinyEnsemble, `"base_weight":0.8`, `"base_weight":-1`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		det, err := Decode(data)
		if err != nil {
			return
		}
		counts := make([]float64, len(det.Attrs))
		for i := range counts {
			counts[i] = float64(i%5) * 0.1
		}
		classify := func(flags []pmu.CountFlag) {
			res, err := det.ClassifyRobust(pmu.Sample{Names: det.Attrs, Counts: counts, Instructions: 1, Flags: flags})
			if err != nil {
				t.Fatalf("decoded ensemble failed to classify (flags %v): %v", flags, err)
			}
			if !(res.Confidence >= 0 && res.Confidence <= 1) {
				t.Fatalf("confidence %v outside [0,1] (flags %v)", res.Confidence, flags)
			}
			for _, p := range res.Pathologies {
				if !(p.Score >= 0 && p.Score <= 1) {
					t.Fatalf("%s score %v outside [0,1] (flags %v)", p.Class, p.Score, flags)
				}
			}
		}
		classify(nil)
		for i := range det.Attrs {
			flags := make([]pmu.CountFlag, len(det.Attrs))
			flags[i] = pmu.FlagStuck
			classify(flags)
		}
	})
}
