package main

import (
	"fmt"
	"reflect"
	"time"

	"fsml/internal/cache"
	"fsml/internal/core"
	"fsml/internal/machine"
	"fsml/internal/pmu"
	"fsml/internal/suite"
)

// simCounts sums exact simulated counts over measured runs. They come
// from an unvalidated simulator model, so they are identity checks
// between commits (a simulator-speed change must not move them), never
// claims about real hardware.
type simCounts struct {
	instr, cycles, l1miss, hitm, l3miss, tlb, lfb uint64
}

func (c *simCounts) add(res machine.RunResult, h *cache.Hierarchy) {
	t := h.TotalCounters()
	c.instr += res.Instructions
	c.cycles += res.TotalCycles
	c.l1miss += t.Get(cache.EvL1LoadMiss) + t.Get(cache.EvL1StoreMiss)
	c.hitm += t.Get(cache.EvSnoopHitM)
	c.l3miss += t.Get(cache.EvL3Miss)
	c.tlb += t.Get(cache.EvDTLBMiss)
	c.lfb += t.Get(cache.EvL1HitLFB)
}

func (c simCounts) report(layer map[string]float64) {
	if c.instr == 0 {
		return
	}
	pki := func(n uint64) float64 { return float64(n) * 1000 / float64(c.instr) }
	layer["sim.instructions"] = float64(c.instr)
	layer["sim.cycles_per_instr"] = float64(c.cycles) / float64(c.instr)
	layer["cache.l1_miss_pki"] = pki(c.l1miss)
	layer["cache.hitm_pki"] = pki(c.hitm)
	layer["cache.l3_miss_pki"] = pki(c.l3miss)
	layer["tlb.miss_pki"] = pki(c.tlb)
	layer["lfb.hit_pki"] = pki(c.lfb)
}

// layerCost accumulates time and heap allocation of one layer's spans.
type layerCost struct {
	calls   int
	dur     time.Duration
	bytes   uint64
	mallocs uint64
}

func (l *layerCost) add(s span) {
	l.calls++
	l.dur += s.dur()
	l.bytes += s.AllocBytes
	l.mallocs += s.Mallocs
}

// machineCosts tallies the machine/pmu layer spans of measured runs.
// The spans cover repeats passes over the same inputs; sim holds the
// exact counts of one pass.
type machineCosts struct {
	build, newM, run, read layerCost
	sim                    simCounts
	repeats                int
}

func (m *machineCosts) report(layer map[string]float64) {
	if m.newM.calls > 0 {
		layer["machine.new_ms"] = ms(m.newM.dur) / float64(m.newM.calls)
		layer["machine.new_alloc_mb"] = float64(m.newM.bytes) / 1e6 / float64(m.newM.calls)
	}
	if instr := float64(m.sim.instr) * float64(m.repeats); instr > 0 {
		layer["machine.run_ns_per_instr"] = float64(m.run.dur.Nanoseconds()) / instr
		layer["machine.run_allocs_per_kinstr"] = float64(m.run.mallocs) * 1000 / instr
	}
	if m.build.calls > 0 {
		layer["miniprog.build_us"] = us(m.build.dur) / float64(m.build.calls)
	}
	if m.read.calls > 0 {
		layer["pmu.read_us"] = us(m.read.dur) / float64(m.read.calls)
	}
	m.sim.report(layer)
}

// measure re-drives core.Collector.Measure layer by layer — machine.New,
// Machine.Run, pmu.PMU.Read — under spans with heap accounting, so the
// caller must not run anything else concurrently. When sim is non-nil
// the run's exact counts are added to it. The sample it returns
// must equal the collector's for the same inputs; callers check that.
func measure(t *tracer, parent int, sim *simCounts, desc string, seed uint64, kernels []machine.Kernel) (pmu.Sample, machine.RunResult) {
	col := core.NewCollector()
	mcfg := col.Machine
	mcfg.Seed = seed
	mcfg.Monitor = true
	id := t.startMem("machine.New", parent)
	m := machine.New(mcfg)
	t.end(id)

	pcfg := col.PMU
	pcfg.Seed = seed
	pcfg.CaseKey = desc
	p := pmu.New(pcfg, col.Events)

	id = t.startMem("Machine.Run", parent)
	res := m.Run(kernels)
	t.end(id)
	id = t.startMem("pmu.PMU.Read", parent)
	s := p.Read(m.Hierarchy())
	t.end(id)
	if sim != nil {
		sim.add(res, m.Hierarchy())
	}
	return s, res
}

// tallyMachine adds up the machine-layer spans.
func tallyMachine(spans []span, costs *machineCosts) {
	for _, s := range spans {
		switch s.Name {
		case "miniprog.Build":
			costs.build.add(s)
		case "machine.New":
			costs.newM.add(s)
		case "Machine.Run":
			costs.run.add(s)
		case "pmu.PMU.Read":
			costs.read.add(s)
		}
	}
}

// sameSample reports whether two samples are identical.
func sameSample(a, b pmu.Sample) bool { return reflect.DeepEqual(a, b) }

// setupReps is how many times train-quick and trace-replay repeat their
// set-up, which takes a few milliseconds or less.
const setupReps = 201

// classifyPasses is how many passes over the check samples
// train-quick and trace-replay time after each unit.
const classifyPasses = 1000

// timeClassify times Detector.ClassifyRobust over the samples and
// returns n per-call latencies in ms, in host time and in reference
// time. Each latency is one pass over all the samples divided by their
// number: a pass is several microseconds, so the host timer's
// resolution does not swamp a sub-microsecond tree walk, and every
// figure averages the same mix of tree paths. Each pass is paired with
// a pass of the paired probe right after it, which converts it to
// reference time (hostspeed.go). Every call must return the first
// call's verdict for its sample.
func timeClassify(det *core.Detector, samples []pmu.Sample, n int) (host, ref []float64, err error) {
	want := make([]string, len(samples))
	for i, s := range samples {
		rr, err := det.ClassifyRobust(s)
		if err != nil {
			return nil, nil, fmt.Errorf("classify check sample %d: %w", i, err)
		}
		want[i] = rr.Class
	}
	pp := newPairedProbe()
	host, ref = make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j, s := range samples {
			rr, err := det.ClassifyRobust(s)
			if err != nil || rr.Class != want[j] {
				return nil, nil, fmt.Errorf("classify check sample %d: verdict changed between calls (%v)", j, err)
			}
		}
		t1 := time.Now()
		pp.run()
		pass, pair := t1.Sub(t0), time.Since(t1)
		perCall := ms(pass) / float64(len(samples))
		host = append(host, perCall)
		ref = append(ref, perCall*pairNominal/pair.Seconds())
	}
	return host, ref, nil
}

// checkSuite are the suite analogs whose smallest inputs give the
// classify-latency samples: cheap to measure, and together they take
// every branch of the quick tree.
var checkSuite = []string{"linear_regression", "histogram", "streamcluster", "blackscholes", "kmeans",
	"word_count", "string_match", "swaptions", "canneal", "fluidanimate", "x264", "ferret"}

// checkSamples measures seeded cases of checkSuite on the default
// collector.
func checkSamples(seed uint64) ([]pmu.Sample, error) {
	col := core.NewCollector()
	var out []pmu.Sample
	for i, name := range checkSuite {
		w, ok := suite.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("suite workload %s missing", name)
		}
		cs := suite.Case{Input: w.Inputs[0].Name, Threads: 4, Opt: machine.OptLevel(i % 4), Seed: seed*100 + uint64(i)}
		out = append(out, col.Measure(name, cs.Seed, w.Build(cs)).Sample)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
