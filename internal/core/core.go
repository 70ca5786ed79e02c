// Package core implements the paper's contribution: the six-step
// methodology of §2.1 that turns hardware performance-event counts into a
// false-sharing detector.
//
//  1. mini-programs with switchable false sharing     internal/miniprog
//  2. identification of relevant events               SelectEvents (§2.3)
//  3. collection of event counts                      Collector (§3.1)
//  4. labeling                                        Observation.Instance
//  5. classifier training                             TrainDetector (§3.2)
//  6. application to unseen programs                  Detector.Classify (§4)
//
// Everything is deterministic given the seeds in the configs.
package core

import (
	"fmt"

	"fsml/internal/faults"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/pmu"
	"fsml/internal/sched"
)

// Observation is one measured run: what was run, what the PMU saw, and
// how long it took. It is the unit both training and detection consume.
type Observation struct {
	// Desc identifies the run (program, size, threads, mode/flags).
	Desc string
	// Label is the ground-truth class for training data ("" for
	// detection runs on unknown programs).
	Label string
	// Sample holds the observed event counts.
	Sample pmu.Sample
	// Result is the execution summary (cycles, instructions).
	Result machine.RunResult
	// Seconds is the simulated wall-clock time.
	Seconds float64
}

// Collector runs workloads on freshly built machines and measures them
// with a PMU. A Collector is configured once and reused across runs;
// each run gets its own machine so no cache state leaks between
// measurements.
type Collector struct {
	// Machine is the machine template (core count, cache config, clock).
	Machine machine.Config
	// PMU is the observation model.
	PMU pmu.Config
	// Events is the counter programming; defaults to pmu.Table2().
	Events []pmu.EventDef
	// Parallelism caps how many cases batch operations (Collect,
	// BatchClassify, SelectEvents probes) simulate concurrently. Zero
	// selects GOMAXPROCS; one forces the sequential reference order.
	// Whatever the setting, batch results are bit-identical: every case
	// derives its randomness from its own index-derived seed and runs on
	// its own machine, so only wall-clock time changes.
	Parallelism int
	// OnProgress, when non-nil, observes batch progress as (completed,
	// total) case counts. Calls are serialized by the batch engine.
	OnProgress func(done, total int)
	// Faults, when non-nil and enabled, injects deterministic counter
	// faults into every measurement (see internal/faults). Nil — the
	// default — measures with perfectly honest counters, and every
	// fault-aware code path below collapses to the historical behavior.
	Faults *faults.Injector
	// Retries is how many re-seeded measurement retries a transient
	// failure (an unusable sample) gets before the case is declared
	// failed. Zero means measure exactly once.
	Retries int
	// Tolerate makes batch operations record failed cases and keep
	// sweeping instead of aborting on the first *PipelineError. It is
	// the deployment posture for fault-injection runs; leave it false to
	// keep failures loud.
	Tolerate bool
}

// schedOptions bundles the collector's batch-engine configuration.
func (c *Collector) schedOptions() sched.Options {
	return sched.Options{Parallelism: c.Parallelism, OnProgress: c.OnProgress}
}

// NewCollector returns a collector for the paper's default platform and
// the Table 2 event set.
func NewCollector() *Collector {
	return &Collector{
		Machine: machine.DefaultConfig(),
		PMU:     pmu.DefaultConfig(),
		Events:  pmu.Table2(),
	}
}

// Measure runs the kernels on a fresh machine built from the collector's
// template (with the given seed) and returns the observation.
// Monitoring overhead is modeled as enabled: that is the paper's
// deployment scenario, and its cost is what the <2% claim is about.
func (c *Collector) Measure(desc string, seed uint64, kernels []machine.Kernel) Observation {
	mcfg := c.Machine
	mcfg.Seed = seed
	mcfg.Monitor = true
	m := machine.New(mcfg)

	pcfg := c.PMU
	pcfg.Seed = seed
	pcfg.Faults = c.Faults
	pcfg.CaseKey = desc
	evs := c.Events
	if evs == nil {
		evs = pmu.Table2()
	}
	p := pmu.New(pcfg, evs)

	res := m.Run(kernels)
	return Observation{
		Desc:    desc,
		Sample:  p.Read(m.Hierarchy()),
		Result:  res,
		Seconds: m.Seconds(res),
	}
}

// MeasureMiniProgram builds and measures one mini-program spec, labeling
// the observation with the spec's mode. A transient measurement failure
// (an unusable sample, possible only under fault injection) is retried
// up to c.Retries times with a re-derived seed; kernels are rebuilt per
// attempt because they are stateful.
func (c *Collector) MeasureMiniProgram(spec miniprog.Spec) (Observation, error) {
	desc := fmt.Sprintf("%s/size=%d/threads=%d/%s/seed=%d",
		spec.Program, spec.Size, spec.Threads, spec.Mode, spec.Seed)
	obs, _, err := c.MeasureRetry(desc, spec.Seed^0x5151, func() ([]machine.Kernel, error) {
		return miniprog.Build(spec)
	})
	obs.Label = spec.Mode.String()
	return obs, err
}
