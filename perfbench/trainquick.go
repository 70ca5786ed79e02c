package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"fsml"
	"fsml/internal/core"
	"fsml/internal/exps"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/ml"
	"fsml/internal/pmu"
)

// goldenSeed is the training seed testdata/quick_detector.golden.json
// was produced with.
const goldenSeed = 1

// cell is one planned grid cell of a training collection.
type cell struct {
	spec miniprog.Spec
	desc string
}

// planCells enumerates a collection grid in the order and with the
// seeds core.Collector.Collect uses. The traced breakdown re-drives
// these cells and checks each sample against Collect's, which proves
// the enumeration faithful.
func planCells(progs []miniprog.Program, grid core.Grid) []cell {
	modes := grid.Modes
	if modes == nil {
		modes = miniprog.Modes()
	}
	var cells []cell
	run := uint64(0)
	for _, p := range progs {
		sizes := grid.Sizes
		if p.Name == "pmatmult" || p.Name == "pmatcompare" || p.Name == "smatmult" {
			sizes = grid.MatSizes
		}
		for _, size := range sizes {
			threads := grid.Threads
			if !p.MultiThreaded {
				threads = []int{1}
			}
			for _, th := range threads {
				for _, mode := range modes {
					if !p.Supports[mode] {
						continue
					}
					for r := 0; r < grid.Repeats[mode]; r++ {
						run++
						spec := miniprog.Spec{Program: p.Name, Size: size, Threads: th, Mode: mode, Seed: grid.Seed + run*7919}
						cells = append(cells, cell{spec: spec,
							desc: fmt.Sprintf("%s/size=%d/threads=%d/%s/seed=%d", p.Name, size, th, mode, spec.Seed)})
					}
				}
			}
		}
	}
	return cells
}

// trainInputs is what train-quick generates from its seed.
type trainInputs struct {
	lab     *exps.Lab
	cells   []cell       // grid A's cells, then grid B's
	samples []pmu.Sample // classify-latency inputs
	golden  []byte       // nil unless the seed is the golden one
}

func trainSetupInputs(b *bench) (*trainInputs, error) {
	in := &trainInputs{lab: &exps.Lab{Quick: true, Seed: b.seed}}
	in.cells = append(planCells(miniprog.MultiThreadedSet(), in.lab.GridA()),
		planCells(miniprog.SequentialSet(), in.lab.GridB())...)
	var err error
	if in.samples, err = checkSamples(b.seed); err != nil {
		return nil, err
	}
	if b.seed == goldenSeed {
		if in.golden, err = os.ReadFile(filepath.Join("testdata", "quick_detector.golden.json")); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// trainQuick is the train-quick workload: fsml.Train(Quick) at
// Parallelism = nproc, the path of `fsml train -quick` and of the serve
// registry's cold start.
func trainQuick(b *bench) error {
	in, err := trainSetupInputs(b)
	if err != nil {
		return err
	}
	b.speed = newHostSpeed(b.workers)
	// Set-up: the per-process state one measurement needs before its
	// first cell — a collector, a fresh machine and its PMU. A machine
	// pool or any other work moved ahead of the first Train shows here.
	// One set-up takes a few milliseconds, so the median of many is
	// reported, with a speed probe after every ten.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// As in a fresh process, the machine's memory comes from the
		// OS: otherwise whether the last one's pages were returned yet
		// sets the time.
		debug.FreeOSMemory()
		t0 := time.Now()
		col := core.NewCollector()
		m := machine.New(col.Machine)
		_ = pmu.New(col.PMU, col.Events)
		setups = append(setups, time.Since(t0).Seconds())
		runtime.KeepAlive(m)
		if i%10 == 0 {
			b.speed.probe()
		}
	}
	b.hostTimes["setup_s"] = median(setups)

	rss := startRSS()
	encoded, err := trainUnits(b, in, b.budget(1))
	if err != nil {
		return err
	}
	if err := b.recordRSS(rss); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	return trainTraced(b, in, encoded)
}

// trainUnits runs fsml.Train units for the budget and records the
// end-to-end metrics. It returns the encoded detector.
func trainUnits(b *bench, in *trainInputs, budget time.Duration) ([]byte, error) {
	cells := float64(len(in.cells))
	var walls, allocs, classifyLat, hostClassify, unitClassify []float64
	var first []byte
	b.speed.probe()
	err := b.runFor(budget, 1, func(i int) error {
		a0 := allocMB()
		t0 := time.Now()
		det, _, err := fsml.Train(fsml.TrainOptions{Quick: true, Seed: b.seed, Parallelism: b.workers})
		wall := time.Since(t0).Seconds()
		alloc := allocMB() - a0
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		allocs = append(allocs, alloc)
		enc, err := det.Encode()
		if err != nil {
			return err
		}
		var ok bool
		if i == 0 {
			first = enc
			ok = b.check(in.golden == nil || bytes.Equal(enc, in.golden), "seed %d detector differs from testdata/quick_detector.golden.json", b.seed)
		} else {
			ok = b.check(bytes.Equal(enc, first), "unit %d trained a different detector than unit 0", i)
		}
		// The first verdicts of the freshly trained detector, timed once
		// the train's garbage is collected: the collector's background
		// work would otherwise land in these nanosecond timings, and in
		// the next unit's train.
		runtime.GC()
		hostLat, lat, err := timeClassify(det, in.samples, classifyPasses)
		if err != nil {
			return err
		}
		b.speed.between()
		walls = append(walls, wall)
		classifyLat, hostClassify = append(classifyLat, lat...), append(hostClassify, hostLat...)
		unitClassify = append(unitClassify, median(lat))
		b.op(ok)
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.units("wall_s host seconds", walls)
	b.hostTimes["wall_s"] = median(walls)
	b.e2e["alloc_mb"] = median(allocs)
	b.hostRates["max_rate_rps"] = cells / median(walls)
	b.e2e["classify_p50_ms"] = median(classifyLat)
	b.units("classify_p50_ms", unitClassify)
	b.layer["core.classify_robust_ns"] = median(hostClassify) * 1e6
	return first, nil
}

// trainTraced runs the training pipeline layer by layer under spans —
// the same public calls fsml.Train makes — checks it trains the same
// detector, then re-drives every collected cell through miniprog.Build,
// machine.New, Machine.Run and pmu.PMU.Read sequentially with heap
// accounting, checking each sample against the one Collect returned.
// Before each traced unit it times an untraced fsml.Train, and checks
// the traced copy against it.
func trainTraced(b *bench, in *trainInputs, want []byte) error {
	t := newTracer()
	var costs machineCosts
	var plain, walls, collectWalls, cellTimes []float64
	ctx := context.Background()
	err := b.runFor(b.budget(1), 1, func(i int) error {
		// Each side starts on a collected heap, so neither pays for the
		// other's garbage.
		runtime.GC()
		p0 := time.Now()
		if _, _, err := fsml.Train(fsml.TrainOptions{Quick: true, Seed: b.seed, Parallelism: b.workers}); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		plain = append(plain, time.Since(p0).Seconds())
		runtime.GC()
		u0 := time.Now()
		unit := t.start("train.unit", 0, "")
		col := core.NewCollector()
		col.Parallelism = b.workers
		id := t.start("core.Collector", unit, "")
		obsA, err := col.CollectContext(ctx, miniprog.MultiThreadedSet(), in.lab.GridA())
		t.end(id)
		if err != nil {
			return err
		}
		id = t.start("core.Collector", unit, "")
		obsB, err := col.CollectContext(ctx, miniprog.SequentialSet(), in.lab.GridB())
		t.end(id)
		if err != nil {
			return err
		}
		collectWalls = append(collectWalls, time.Since(u0).Seconds())
		id = t.start("core.filter", unit, "")
		keptA, _ := core.FilterObservations(obsA, core.DefaultFilter())
		cfgB := core.DefaultFilter()
		cfgB.DropWeakGood = true
		keptB, _ := core.FilterObservations(obsB, cfgB)
		data, err := core.BuildDataset(append(append([]core.Observation{}, keptA...), keptB...))
		t.end(id)
		if err != nil {
			return err
		}
		id = t.start("ml.grow", unit, "")
		det, err := core.TrainDetector(data)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.start("ml.cv", unit, "")
		_, err = ml.CrossValidate(ml.NewC45(ml.DefaultC45()), data, 10, b.seed)
		t.end(id)
		if err != nil {
			return err
		}
		t.end(unit)
		walls = append(walls, time.Since(u0).Seconds())
		enc, err := det.Encode()
		if err != nil {
			return err
		}
		ok := b.check(bytes.Equal(enc, want), "layer-by-layer pipeline trained a different detector than fsml.Train")

		// Breakdown: every cell again, one at a time.
		bd := t.start("train.breakdown", 0, "")
		var sum time.Duration
		obs := append(obsA, obsB...)
		for k, c := range in.cells {
			c0 := time.Now()
			cid := t.start("cell", bd, "")
			id := t.startMem("miniprog.Build", cid)
			kernels, err := miniprog.Build(c.spec)
			t.end(id)
			if err != nil {
				return err
			}
			var sim *simCounts
			if i == 0 {
				sim = &costs.sim
			}
			s, _ := measure(t, cid, sim, c.desc, c.spec.Seed^0x5151, kernels)
			t.end(cid)
			sum += time.Since(c0)
			ok = b.check(sameSample(s, obs[k].Sample), "cell %s: re-driven sample differs from core.Collector's", c.desc) && ok
		}
		t.end(bd)
		cellTimes = append(cellTimes, sum.Seconds())
		b.op(ok)
		return nil
	})
	if err != nil {
		return err
	}
	spans := t.snapshot()
	b.spans = spans
	tallyMachine(spans, &costs)
	costs.repeats = len(walls)
	costs.report(b.layer)
	byName := selfByName(spans)
	n := float64(len(walls))
	b.layer["core.filter_ms"] = ms(byName["core.filter"]) / n
	b.layer["ml.grow_ms"] = ms(byName["ml.grow"]) / n
	b.layer["ml.cv_ms"] = ms(byName["ml.cv"]) / n
	b.layer["sched.busy_frac"] = mean(cellTimes) / (float64(b.workers) * mean(collectWalls))
	b.op(b.accounted(spans, "train.unit"))
	b.op(b.matchesProgram(median(plain), median(walls), "fsml.Train"))
	return nil
}
