package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fsml"
	"fsml/internal/core"
	"fsml/internal/machine"
	"fsml/internal/pmu"
	"fsml/internal/suite"
	"fsml/internal/trace"
)

// replayCase is one suite analog recorded into a trace at set-up.
type replayCase struct {
	workload, input string
	opt             machine.OptLevel
	gzip            bool
}

// replayCases span the behaviours a replayed trace can show: false
// sharing; a 14 MB footprint, larger than the modelled 12 MB L3, sent
// gzip-compressed as uploads usually are; private per-thread work. The
// seed varies each case's data layout and values, not its size, so
// every seed replays the same amount of work.
var replayCases = []replayCase{
	{"linear_regression", "50MB", machine.O0, false},
	{"blackscholes", "native", machine.O2, true},
	{"histogram", "10MB", machine.O2, false},
}

// recorded is one trace input with the verdict and instruction count of
// running the same kernels directly through fsml.Detect.
type recorded struct {
	name      string
	data      []byte // the trace file, gzip-compressed when the case says so
	textBytes int
	class     string
	instr     uint64
}

func recordCases(det *core.Detector, seed uint64) ([]recorded, error) {
	var out []recorded
	for i, rc := range replayCases {
		w, ok := suite.Lookup(rc.workload)
		if !ok {
			return nil, fmt.Errorf("suite workload %s missing", rc.workload)
		}
		cs := suite.Case{Input: rc.input, Threads: 4, Opt: rc.opt, Seed: seed*10 + uint64(i)}
		tr, _ := trace.Record(machine.DefaultConfig(), w.Build(cs))
		var text bytes.Buffer
		if err := trace.Write(&text, tr); err != nil {
			return nil, err
		}
		r := recorded{name: rc.workload + "/" + rc.input, data: text.Bytes(), textBytes: text.Len()}
		if rc.gzip {
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			if _, err := zw.Write(text.Bytes()); err != nil {
				return nil, err
			}
			if err := zw.Close(); err != nil {
				return nil, err
			}
			r.data = gz.Bytes()
		}
		class, obs, err := fsml.Detect(det, w.Build(cs))
		if err != nil {
			return nil, fmt.Errorf("direct run of %s: %w", r.name, err)
		}
		r.class, r.instr = class, obs.Result.Instructions
		out = append(out, r)
	}
	return out, nil
}

// traceReplay is the trace-replay workload: trace.Parse then
// fsml.DetectTrace over a fixed set of recorded traces, with the quick
// golden detector.
func traceReplay(b *bench) error {
	// Set-up: decoding the detector. One decode takes tens of
	// microseconds, so the median of many is reported. Like a classify
	// pass it is short enough for the host's fast and slow states to
	// set its time, so each decode is paired with the paired probe.
	blob, err := os.ReadFile(filepath.Join("testdata", "quick_detector.golden.json"))
	if err != nil {
		return err
	}
	// The replay parses and simulates on one goroutine, so the speed
	// probe runs on one: under a share of the CPUs it then slows as the
	// replay does, not as work spread over both.
	b.speed = newHostSpeed(1)
	var det *core.Detector
	var setups []float64
	pp := newPairedProbe()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		det, err = fsml.DecodeDetector(blob)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decode golden detector: %w", err)
		}
		pp.run()
		setups = append(setups, t1.Sub(t0).Seconds()*pairNominal/time.Since(t1).Seconds())
	}
	b.e2e["setup_s"] = median(setups)

	cases, err := recordCases(det, b.seed)
	if err != nil {
		return err
	}
	checks, err := checkSamples(b.seed)
	if err != nil {
		return err
	}
	rss := startRSS()
	samples, err := replayPasses(b, det, blob, cases, checks)
	if err != nil {
		return err
	}
	if err := b.recordRSS(rss); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	return replayTraced(b, det, cases, samples)
}

// replayPasses replays every trace once per pass until the time is
// spent, checking each verdict and instruction count against the direct
// run, and after each pass times classifying the check samples with a
// copy of the detector decoded afresh from blob: like train-quick's
// freshly trained one, each copy lands somewhere else in memory, so the
// median does not hang on where one copy happened to land. It returns
// the replayed samples.
func replayPasses(b *bench, det *core.Detector, blob []byte, cases []recorded, checks []pmu.Sample) ([]pmu.Sample, error) {
	var walls, allocs, classifyLat, hostClassify, unitClassify []float64
	samples := make([]pmu.Sample, len(cases))
	b.speed.probe()
	err := b.runFor(b.budget(1), 2, func(pass int) error {
		a0 := allocMB()
		p0 := time.Now()
		for i, c := range cases {
			class, obs, err := replay(det, c)
			if err != nil {
				return err
			}
			b.op(b.check(class == c.class && obs.Result.Instructions == c.instr,
				"%s replay gave %s/%d instructions, direct run %s/%d", c.name, class, obs.Result.Instructions, c.class, c.instr))
			samples[i] = obs.Sample
		}
		wall := time.Since(p0).Seconds()
		allocs = append(allocs, allocMB()-a0)
		fresh, err := fsml.DecodeDetector(blob)
		if err != nil {
			return err
		}
		// Collected first, as on train-quick.
		runtime.GC()
		hostLat, lat, err := timeClassify(fresh, checks, classifyPasses)
		if err != nil {
			return err
		}
		b.speed.between()
		walls = append(walls, wall)
		classifyLat, hostClassify = append(classifyLat, lat...), append(hostClassify, hostLat...)
		unitClassify = append(unitClassify, median(lat))
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.units("wall_s host seconds", walls)
	b.hostTimes["wall_s"] = median(walls)
	b.e2e["alloc_mb"] = median(allocs)
	b.hostRates["max_rate_rps"] = float64(len(cases)) / median(walls)
	b.e2e["classify_p50_ms"] = median(classifyLat)
	b.units("classify_p50_ms", unitClassify)
	b.layer["core.classify_robust_ns"] = median(hostClassify) * 1e6
	return samples, nil
}

// replay is the program's own path for one trace upload: trace.Parse
// then fsml.DetectTrace.
func replay(det *core.Detector, c recorded) (string, core.Observation, error) {
	tr, err := trace.Parse(bytes.NewReader(c.data))
	if err != nil {
		return "", core.Observation{}, fmt.Errorf("parse %s: %w", c.name, err)
	}
	class, obs, err := fsml.DetectTrace(det, tr)
	if err != nil {
		return "", core.Observation{}, fmt.Errorf("replay %s: %w", c.name, err)
	}
	return class, obs, nil
}

// replayTraced replays the traces layer by layer — trace.Parse,
// machine.New, Machine.Run, pmu.PMU.Read, Detector.ClassifyObservation,
// the calls fsml.DetectTrace makes — under spans with heap accounting,
// checking each sample and verdict against the untraced replay. Before
// each traced pass it times an untraced one, and checks the traced copy
// against it.
func replayTraced(b *bench, det *core.Detector, cases []recorded, want []pmu.Sample) error {
	t := newTracer()
	var costs machineCosts
	var textBytes int
	var plain []float64
	err := b.runFor(b.budget(1), 2, func(pass int) error {
		runtime.GC()
		p0 := time.Now()
		for _, c := range cases {
			if _, _, err := replay(det, c); err != nil {
				return err
			}
		}
		plain = append(plain, time.Since(p0).Seconds())
		runtime.GC()
		pid := t.start("trace.pass", 0, "")
		for i, c := range cases {
			rid := t.start("trace.replay", pid, "")
			id := t.startMem("trace.Parse", rid)
			tr, err := trace.Parse(bytes.NewReader(c.data))
			t.end(id)
			if err != nil {
				return fmt.Errorf("parse %s: %w", c.name, err)
			}
			textBytes += c.textBytes
			var sim *simCounts
			if pass == 0 {
				sim = &costs.sim
			}
			cfg := fsml.DefaultMachine()
			s, res := measure(t, rid, sim, "user-workload", cfg.Seed, tr.Kernels())
			id = t.start("core.classify", rid, "")
			class, err := det.ClassifyObservation(core.Observation{Sample: s, Result: res})
			t.end(id)
			t.end(rid)
			if err != nil {
				return fmt.Errorf("classify %s: %w", c.name, err)
			}
			b.op(b.check(sameSample(s, want[i]) && class == c.class && res.Instructions == c.instr,
				"%s: layer-by-layer replay differs from fsml.DetectTrace", c.name))
		}
		t.end(pid)
		return nil
	})
	if err != nil {
		return err
	}
	spans := t.snapshot()
	b.spans = spans
	passes := durations(spans, "trace.pass", time.Second)
	tallyMachine(spans, &costs)
	costs.repeats = len(passes)
	costs.report(b.layer)
	var parse layerCost
	for _, s := range spans {
		if s.Name == "trace.Parse" {
			parse.add(s)
		}
	}
	b.layer["trace.parse_mb_per_s"] = float64(textBytes) / 1e6 / parse.dur.Seconds()
	b.layer["trace.parse_alloc_mb"] = float64(parse.bytes) / 1e6 / float64(len(passes))
	b.layer["core.classify_us"] = mean(durations(spans, "core.classify", time.Microsecond))
	b.op(b.accounted(spans, "trace.replay"))
	b.op(b.matchesProgram(median(plain), median(passes), "trace.Parse + fsml.DetectTrace"))
	return nil
}
