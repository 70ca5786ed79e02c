package ensemble

import (
	"fmt"
	"sort"

	"fsml/internal/core"
	"fsml/internal/ml"
	"fsml/internal/pmu"
)

// PathologyScore is one entry of the ranked verdict: a label and the
// ensemble's calibrated, normalized confidence in it.
type PathologyScore struct {
	Class string  `json:"class"`
	Score float64 `json:"score"`
}

// Result is a multi-pathology classification. Pathologies is ranked by
// descending score (ties ascending label), Class and Confidence mirror
// its top entry so ensemble results drop into code written for the
// single detector's RobustResult.
type Result struct {
	// Class is the top-ranked label.
	Class string
	// Confidence is the top entry's normalized score.
	Confidence float64
	// Pathologies ranks every class the ensemble knows.
	Pathologies []PathologyScore
	// Degraded reports that at least one member predicted on a partial
	// feature subset (missing or suspect events).
	Degraded bool
	// Suspects lists the sample's flagged events, in programming order.
	Suspects []string
	// MissingEvents lists ensemble attributes the sample does not carry
	// at all (e.g. the remote-DRAM counter in a legacy 15-feature
	// vector), sorted. Members needing them degraded per-member.
	MissingEvents []string
}

// Classify labels one PMU sample with the ensemble's top-ranked class.
func (d *Detector) Classify(s pmu.Sample) (string, error) {
	r, err := d.ClassifyRobust(s)
	if err != nil {
		return "", err
	}
	return r.Class, nil
}

// ClassifyRobust runs every committee over the sample and aggregates
// the votes into a ranked verdict.
//
// Degradation is per-member, reusing the single detector's
// PredictPartial/FlagStarved semantics: an event that is flagged
// suspect, or absent from the sample's programming, becomes a missing
// value for the members whose feature subset consults it — those
// members blend split branches and vote with reduced confidence while
// unaffected members vote at full strength. A flagged instruction
// normalizer poisons every normalized feature, so all attributes go
// missing and every member falls back toward its training prior. A
// sample with no usable instruction count at all is an error.
func (d *Detector) ClassifyRobust(s pmu.Sample) (Result, error) {
	if s.Instructions <= 0 {
		return Result{}, fmt.Errorf("pmu: sample has no usable instruction count (normalizer read %g)", s.Instructions)
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

	res := Result{Suspects: suspects}
	for a := range missingSet {
		res.MissingEvents = append(res.MissingEvents, a)
	}
	sort.Strings(res.MissingEvents)

	// Committee votes. opinion sums Weight*opinion and Weight per class.
	type agg struct{ num, den float64 }
	scores := make(map[string]*agg, len(d.Classes))
	for _, c := range d.Classes {
		scores[c] = &agg{}
	}
	for _, m := range d.Members {
		class, conf, degraded := predictMember(m.flat, s, layout, suspect, instrBad)
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

	// Base member: the paper's 3-class tree votes over its own label
	// space; the confidence mass it withholds from its predicted class
	// is spread over its other labels.
	class, conf, degraded := predictMember(d.Base.FlatTree(), s, layout, suspect, instrBad)
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

	res.Pathologies = make([]PathologyScore, 0, len(d.Classes))
	var total float64
	for _, c := range d.Classes {
		a := scores[c]
		score := 0.0
		if a.den > 0 {
			score = a.num / a.den
		}
		res.Pathologies = append(res.Pathologies, PathologyScore{Class: c, Score: score})
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

// RobustAdapter presents the ensemble through the single detector's
// robust-verdict shape (core.RobustResult keeps only the top-ranked
// label), so consumers written against core.Detector.ClassifyRobust —
// notably the stream engine — can run on the full label space without
// knowing about ensembles.
type RobustAdapter struct{ D *Detector }

// ClassifyRobust implements the core-compatible classifier seam.
func (a RobustAdapter) ClassifyRobust(s pmu.Sample) (core.RobustResult, error) {
	r, err := a.D.ClassifyRobust(s)
	if err != nil {
		return core.RobustResult{}, err
	}
	return core.RobustResult{Class: r.Class, Confidence: r.Confidence, Degraded: r.Degraded, Suspects: r.Suspects}, nil
}

// predictMember projects the sample onto one compiled member tree's
// attribute list and predicts, blending branches at attributes whose
// events are suspect or absent. It returns the predicted class, the
// member's confidence in it, and whether the prediction was degraded.
func predictMember(tree *ml.FlatTree, s pmu.Sample, layout map[string]int, suspect map[string]bool, instrBad bool) (string, float64, bool) {
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
