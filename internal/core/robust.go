package core

// This file is the graceful-degradation layer of the pipeline: the typed
// error taxonomy, retry-with-derived-reseed for transient measurement
// failures, and classification that survives flagged counter reads by
// predicting on the surviving event subset with a recorded confidence
// downgrade. It exists because the fault-injection registry
// (internal/faults) makes counters lie on purpose; a hardened sweep must
// keep going — and say how sure it still is — instead of aborting on the
// first bad read.

import (
	"errors"
	"fmt"
	"slices"

	"fsml/internal/machine"
	"fsml/internal/pmu"
	"fsml/internal/xrand"
)

// Stage names the pipeline stage a failure belongs to.
type Stage string

// Pipeline stages, in execution order.
const (
	StageCollect  Stage = "collect"
	StageMeasure  Stage = "measure"
	StageTrain    Stage = "train"
	StageClassify Stage = "classify"
	StageTrace    Stage = "trace"
)

// PipelineError is the typed failure of one pipeline stage, carrying the
// stage, the identity of the case that failed, and how many measurement
// attempts were spent before giving up. It wraps the root cause, so
// errors.Is/As see through it.
type PipelineError struct {
	// Stage is where the failure happened.
	Stage Stage
	// Case identifies the failing case (an observation description, a
	// spec string, or "detector" for training).
	Case string
	// Attempts counts measurement attempts, including retries; zero for
	// stages that do not retry.
	Attempts int
	// Err is the root cause.
	Err error
}

// Error implements error.
func (e *PipelineError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("core: %s %s (after %d attempts): %v", e.Stage, e.Case, e.Attempts, e.Err)
	}
	return fmt.Sprintf("core: %s %s: %v", e.Stage, e.Case, e.Err)
}

// Unwrap exposes the root cause to errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Err }

// ErrUnusableSample marks a measurement whose instruction normalizer
// read as non-positive — nothing downstream can use it. It is the
// transient failure retry-with-reseed exists for: a re-derived
// measurement seed re-draws the injected faults, so a retry can land a
// usable read.
var ErrUnusableSample = errors.New("sample has no usable instruction count")

// usable reports whether an observation can be normalized at all.
func usable(obs Observation) bool { return obs.Sample.Instructions > 0 }

// attemptSeed derives the measurement seed of retry attempt a (attempt 0
// is the case's own seed; later attempts re-derive, which re-draws both
// the PMU noise stream and any injected faults).
func attemptSeed(seed uint64, a int) uint64 {
	if a == 0 {
		return seed
	}
	return xrand.DeriveSeed(seed, uint64(a))
}

// MeasureRetry measures a case with up to c.Retries re-seeded retries.
// Kernels are stateful, so every attempt rebuilds them via build. On
// success it returns the observation and the number of attempts spent;
// when every attempt produced an unusable sample it returns the last
// observation alongside a *PipelineError. It is the one retry loop:
// mini-program collection, BatchClassify and served trace replays all
// measure through it.
func (c *Collector) MeasureRetry(desc string, seed uint64, build func() ([]machine.Kernel, error)) (Observation, int, error) {
	attempts := c.Retries + 1
	var obs Observation
	for a := 0; a < attempts; a++ {
		kernels, err := build()
		if err != nil {
			return Observation{}, a + 1, &PipelineError{Stage: StageMeasure, Case: desc, Attempts: a + 1, Err: err}
		}
		obs = c.Measure(desc, attemptSeed(seed, a), kernels)
		if usable(obs) {
			return obs, a + 1, nil
		}
	}
	return obs, attempts, &PipelineError{Stage: StageMeasure, Case: desc, Attempts: attempts, Err: ErrUnusableSample}
}

// ---------------------------------------------------------------------------
// Degraded classification

// RobustResult is a classification that records its own quality: the
// predicted class, the classifier's confidence in it, and whether (and
// why) the prediction was computed on a partial event subset. It is the
// one verdict type: the single detector leaves the ensemble-only fields
// nil.
type RobustResult struct {
	// Class is the predicted label.
	Class string
	// Confidence is the weight fraction behind Class: 1 for a clean
	// full-vector prediction, lower when flagged events forced the tree
	// to blend subtrees (see ml.FlatTree.PredictPartial). For the
	// ensemble it is the top-ranked pathology's normalized score.
	Confidence float64
	// Degraded reports that flagged counter reads affected the
	// prediction path.
	Degraded bool
	// Suspects lists the flagged events of the sample, in programming
	// order (nil for a clean sample).
	Suspects []string
	// Pathologies ranks every class the multi-pathology ensemble knows,
	// by descending score (ties ascending label); Class and Confidence
	// mirror its top entry. Nil for the single detector.
	Pathologies []PathologyScore
	// MissingEvents lists ensemble attributes the sample does not carry
	// at all (e.g. the remote-DRAM counter in a legacy 15-feature
	// vector), sorted. Members needing them degrade. Nil for the single
	// detector, which rejects such samples.
	MissingEvents []string
}

// PathologyScore is one entry of the ensemble's ranked verdict: a label
// and the ensemble's calibrated, normalized confidence in it.
type PathologyScore struct {
	Class string  `json:"class"`
	Score float64 `json:"score"`
}

// Classifier labels a sample robustly. *Detector and the
// multi-pathology ensemble implement it.
type Classifier interface {
	ClassifyRobust(s pmu.Sample) (RobustResult, error)
}

// ClassifyRobust labels a sample the way Classify does, but survives
// flagged counter reads (see pmu.CountFlag): suspect events become
// missing values, the tree predicts on the surviving subset by blending
// split branches, and the result records the confidence downgrade. A
// flagged instruction normalizer poisons every normalized feature, so it
// marks ALL attributes missing and the prediction falls back to the
// training prior. A sample with no usable instruction count at all is
// still an error — there is no subset to survive on.
func (d *Detector) ClassifyRobust(s pmu.Sample) (RobustResult, error) {
	suspects := s.SuspectEvents()
	if len(suspects) == 0 && !s.InstrFlag.Suspect() {
		class, err := d.Classify(s)
		if err != nil {
			return RobustResult{}, err
		}
		return RobustResult{Class: class, Confidence: 1}, nil
	}

	fv, err := d.projectTree(s, len(d.flat.Classes))
	if err != nil {
		return RobustResult{}, err
	}
	// A suspect normalizer poisons every normalized feature; otherwise
	// an attribute is missing when any copy of its event is flagged.
	var missing []bool
	instrBad := s.InstrFlag.Suspect()
	for i, a := range d.flat.Attrs {
		if instrBad || slices.Contains(suspects, a) {
			if missing == nil {
				missing = make([]bool, len(d.flat.Attrs))
			}
			missing[i] = true
		}
	}
	if missing == nil {
		// The flagged events are not ones this tree consults.
		return RobustResult{Class: d.flat.Predict(fv), Confidence: 1, Suspects: suspects}, nil
	}
	id, conf := d.flat.PredictPartialInto(fv, missing, fv[len(fv):cap(fv)])
	return RobustResult{Class: d.flat.Classes[id], Confidence: conf, Degraded: true, Suspects: suspects}, nil
}
