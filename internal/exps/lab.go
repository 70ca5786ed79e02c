// Package exps regenerates every table and figure of the paper's
// evaluation: Table 1 (motivating dot-product), Table 2 (event
// selection), Table 3 (training data), Table 4 (cross-validation),
// Figure 2 (the decision tree), Table 5 (benchmark classification),
// Tables 6-9 (linear_regression and streamcluster detail + shadow-tool
// rates), Tables 10-11 (verification and detection quality), plus the
// <2% overhead measurement and the ablations DESIGN.md calls out.
//
// Each experiment returns a structured result with a String() rendering
// shaped like the paper's table. Absolute numbers come from the
// simulator, so they differ from the paper's hardware; the *shape* —
// who wins, what flips, what crosses the 1e-3 criterion — is the
// reproduction target and is asserted by this package's tests.
package exps

import (
	"context"
	"fmt"
	"sync"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ensemble"
	"fsml/internal/faults"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/sched"
	"fsml/internal/suite"
)

// Lab carries the shared, lazily built experimental state: the collector,
// the training data and the trained detector. A Lab is safe to reuse
// across experiments; Quick mode shrinks every grid for fast test runs.
type Lab struct {
	// Quick selects reduced grids (for tests); the default full grids
	// match the paper's scale.
	Quick bool
	// Seed drives all lab randomness.
	Seed uint64
	// Parallelism caps concurrent case simulations across the lab's
	// collection grids and benchmark sweeps (0 = GOMAXPROCS, 1 =
	// sequential reference order). Results are bit-identical at every
	// setting; only wall-clock time changes. Set before first use.
	Parallelism int
	// Progress, when non-nil, observes batch progress as (completed,
	// total) counts of the currently running sweep. Set before first use.
	Progress func(done, total int)
	// Faults, when enabled, injects deterministic counter faults into
	// every measurement the lab takes and switches the collector to
	// tolerant, retrying sweeps (see internal/faults). The zero value
	// keeps counters honest. Set before first use.
	Faults faults.Config
	// Ctx, when non-nil, bounds every batch the lab runs: cancellation
	// (or a deadline) stops feeding new cases and surfaces the context's
	// error. Nil means context.Background(). Set before first use.
	Ctx context.Context

	once      sync.Once
	collector *core.Collector
	partA     []core.Observation
	partB     []core.Observation
	sumA      core.TrainingSummary
	sumB      core.TrainingSummary
	data      *dataset.Dataset
	detector  *core.Detector
	// detOverride, when set, short-circuits training: classification
	// experiments use the supplied (e.g. loaded-from-disk) detector.
	detOverride *core.Detector
	initErr     error

	ensOnce sync.Once
	ensDet  *ensemble.Detector
	ensErr  error
}

// UseDetector installs an externally trained detector so classification
// sweeps skip the collection/training phase.
func (l *Lab) UseDetector(det *core.Detector) error {
	if det == nil || det.FlatTree() == nil {
		return fmt.Errorf("exps: UseDetector needs a trained detector")
	}
	l.detOverride = det
	return nil
}

// NewLab returns a lab with the default full-scale configuration.
func NewLab() *Lab { return &Lab{Seed: 1} }

// NewQuickLab returns a reduced lab for tests.
func NewQuickLab() *Lab { return &Lab{Quick: true, Seed: 1} }

// Collector returns the lab's measurement collector. The collector is
// created on first use with the lab's parallelism settings; like the
// rest of the lab's lazy state it must first be touched from a single
// goroutine (the batch runners below do so before fanning out).
func (l *Lab) Collector() *core.Collector {
	if l.collector == nil {
		l.collector = core.NewCollector()
		l.collector.Parallelism = l.Parallelism
		l.collector.OnProgress = l.Progress
		if l.Faults.Enabled() {
			l.collector.Faults = faults.New(l.Faults)
			l.collector.Tolerate = true
			l.collector.Retries = 2
		}
	}
	return l.collector
}

// schedOptions bundles the lab's batch-engine configuration for sweeps
// that drive sched.Map directly (mixed classifier+tool grids).
func (l *Lab) schedOptions() sched.Options {
	return sched.Options{Parallelism: l.Parallelism, OnProgress: l.Progress}
}

// ctx returns the lab's batch context (Background when unset).
func (l *Lab) ctx() context.Context {
	if l.Ctx != nil {
		return l.Ctx
	}
	return context.Background()
}

// gridA returns the Part A collection grid.
func (l *Lab) gridA() core.Grid {
	if !l.Quick {
		return core.DefaultPartAGrid()
	}
	return core.Grid{
		Sizes:    []int{30000, 60000},
		MatSizes: []int{96},
		Threads:  []int{3, 6},
		Repeats: map[miniprog.Mode]int{
			miniprog.Good: 2, miniprog.BadFS: 1, miniprog.BadMA: 1,
		},
		Seed: l.Seed*1000 + 11,
	}
}

// gridB returns the Part B collection grid.
func (l *Lab) gridB() core.Grid {
	if !l.Quick {
		return core.DefaultPartBGrid()
	}
	return core.Grid{
		Sizes:    []int{2000, 60000, 120000},
		MatSizes: []int{96},
		Threads:  []int{1},
		Repeats:  map[miniprog.Mode]int{miniprog.Good: 1, miniprog.BadMA: 1},
		Seed:     l.Seed*1000 + 12,
	}
}

// GridA and GridB expose the lab's collection grids (for platform
// retraining flows that reuse the lab's sizing).
func (l *Lab) GridA() core.Grid { return l.gridA() }

// GridB returns the Part B grid.
func (l *Lab) GridB() core.Grid { return l.gridB() }

// init collects, filters and trains once.
func (l *Lab) init() error {
	l.once.Do(func() {
		c := l.Collector()
		partA, err := c.CollectContext(l.ctx(), miniprog.MultiThreadedSet(), l.gridA())
		if err != nil {
			l.initErr = err
			return
		}
		partB, err := c.CollectContext(l.ctx(), miniprog.SequentialSet(), l.gridB())
		if err != nil {
			l.initErr = err
			return
		}
		keptA, repA := core.FilterObservations(partA, core.DefaultFilter())
		cfgB := core.DefaultFilter()
		cfgB.DropWeakGood = true
		keptB, repB := core.FilterObservations(partB, cfgB)
		l.partA, l.partB = keptA, keptB
		l.sumA = core.Summarize("Part A (multi-threaded)", repA)
		l.sumB = core.Summarize("Part B (sequential only)", repB)
		l.data, err = core.BuildDataset(append(append([]core.Observation{}, keptA...), keptB...))
		if err != nil {
			l.initErr = err
			return
		}
		l.detector, err = core.TrainDetector(l.data)
		if err != nil {
			l.initErr = err
		}
	})
	return l.initErr
}

// TrainingData returns the filtered, labeled dataset (building it on
// first use).
func (l *Lab) TrainingData() (*dataset.Dataset, error) {
	if err := l.init(); err != nil {
		return nil, err
	}
	return l.data, nil
}

// Detector returns the trained detector (training on first use), or the
// detector installed via UseDetector.
func (l *Lab) Detector() (*core.Detector, error) {
	if l.detOverride != nil {
		return l.detOverride, nil
	}
	if err := l.init(); err != nil {
		return nil, err
	}
	return l.detector, nil
}

// Ensemble returns the lab's multi-pathology ensemble, training it (and
// the base detector it folds in) on first use. The widened pathology
// grids are collected with the lab's seed and parallelism, so the
// ensemble — like everything else the lab builds — is bit-identical at
// any parallelism setting.
func (l *Lab) Ensemble() (*ensemble.Detector, error) {
	l.ensOnce.Do(func() {
		base, err := l.Detector()
		if err != nil {
			l.ensErr = err
			return
		}
		l.ensDet, l.ensErr = ensemble.TrainContext(l.ctx(), ensemble.TrainConfig{
			Quick:       l.Quick,
			Seed:        l.Seed,
			Parallelism: l.Parallelism,
			Progress:    l.Progress,
		}, base)
	})
	return l.ensDet, l.ensErr
}

// Summaries returns the Table 3 bookkeeping rows.
func (l *Lab) Summaries() (core.TrainingSummary, core.TrainingSummary, error) {
	if err := l.init(); err != nil {
		return core.TrainingSummary{}, core.TrainingSummary{}, err
	}
	return l.sumA, l.sumB, nil
}

// ---------------------------------------------------------------------------
// Benchmark case grids (shared by Tables 5-10)

// phoenixFlags and parsecFlags are the optimization sweeps the paper's
// detail tables show (Table 6: -O0..-O2; Table 8: -O1..-O3).
func phoenixFlags() []machine.OptLevel {
	return []machine.OptLevel{machine.O0, machine.O1, machine.O2}
}
func parsecFlags() []machine.OptLevel {
	return []machine.OptLevel{machine.O1, machine.O2, machine.O3}
}

// flagsFor returns the optimization sweep for a workload.
func flagsFor(w suite.Workload) []machine.OptLevel {
	if w.Suite == "parsec" {
		return parsecFlags()
	}
	return phoenixFlags()
}

// threadsFor returns the classification thread sweep (Table 5 context).
func (l *Lab) threadsFor(w suite.Workload) []int {
	if l.Quick {
		return []int{4, 12}
	}
	if w.Suite == "parsec" {
		return []int{4, 8, 12}
	}
	return []int{3, 6, 9, 12}
}

// verifyThreadsFor returns the verification sweep, capped at the shadow
// tool's 8-thread limit (Tables 7, 9, 10).
func verifyThreadsFor(w suite.Workload) []int {
	if w.Suite == "parsec" {
		return []int{4, 8}
	}
	return []int{3, 6}
}

// inputsFor returns the input sweep.
func (l *Lab) inputsFor(w suite.Workload) []suite.Input {
	if l.Quick {
		return w.Inputs[:1]
	}
	if w.Suite == "parsec" && w.Name != "streamcluster" {
		// The paper runs PARSEC with the sim* inputs; "native" appears
		// only in the streamcluster detail table.
		return w.Inputs[:3]
	}
	if w.Name == "streamcluster" {
		return w.Inputs // includes native for Table 8
	}
	return w.Inputs
}

// classifyWith builds, runs and classifies one benchmark case with
// explicit dependencies. It is safe for concurrent use with distinct
// cases: the detector is read-only and every case builds its own address
// space and machine.
func classifyWith(det *core.Detector, c *core.Collector, w suite.Workload, cs suite.Case) (core.CaseResult, error) {
	obs := c.Measure(fmt.Sprintf("%s/%s", w.Name, cs), cs.Seed^0xbead, w.Build(cs))
	class, err := det.ClassifyObservation(obs)
	if err != nil {
		return core.CaseResult{}, err
	}
	return core.CaseResult{Desc: cs.String(), Class: class, Seconds: obs.Seconds}, nil
}

// classifyCase builds, runs and classifies one benchmark case.
func (l *Lab) classifyCase(w suite.Workload, cs suite.Case) (core.CaseResult, error) {
	det, err := l.Detector()
	if err != nil {
		return core.CaseResult{}, err
	}
	return classifyWith(det, l.Collector(), w, cs)
}

// runCases classifies a pre-enumerated case list through the batch
// engine, returning results in case order.
func (l *Lab) runCases(w suite.Workload, cases []suite.Case) ([]core.CaseResult, error) {
	det, err := l.Detector()
	if err != nil {
		return nil, err
	}
	c := l.Collector()
	return c.BatchClassify(l.ctx(), det, len(cases), func(i int) core.BatchCase {
		cs := cases[i]
		return core.BatchCase{
			Desc:        cs.String(),
			MeasureDesc: fmt.Sprintf("%s/%s", w.Name, cs),
			Seed:        cs.Seed ^ 0xbead,
			Kernels:     w.Build(cs),
		}
	})
}
