package fsml_test

import (
	"fmt"
	"sync"
	"testing"

	"fsml"
	"fsml/internal/cache"
	"fsml/internal/core"
	"fsml/internal/exps"
	"fsml/internal/machine"
	"fsml/internal/mem"
	"fsml/internal/miniprog"
	"fsml/internal/ml"
)

// The experiment benchmarks regenerate the paper's tables and figures at
// full scale. They share one Lab so the expensive collection/training
// phase (hundreds of simulated runs) happens once per `go test -bench`
// invocation; per-table sweeps then run inside the timed loops. Key
// reproduction quantities (accuracy, false-positive counts, agreement)
// are attached via b.ReportMetric, and each table's rendering is printed
// once so a bench run doubles as an EXPERIMENTS.md data source.
//
// Run with -benchtime=1x: the sweeps are deterministic, so repeated
// iterations only re-measure the same computation.

var (
	fullLabOnce sync.Once
	fullLab     *exps.Lab
)

func benchLab(b *testing.B) *exps.Lab {
	b.Helper()
	fullLabOnce.Do(func() { fullLab = exps.NewLab() })
	return fullLab
}

var printedOnce sync.Map

// printOnce emits a table rendering a single time per process.
func printOnce(key, s string) {
	if _, loaded := printedOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, s)
	}
}

func BenchmarkTable1DotProduct(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table1()
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Threads) - 1
		b.ReportMetric(r.Seconds[1][last]/r.Seconds[0][last], "fs-slowdown-x")
		printOnce("Table 1", r.String())
	}
}

func BenchmarkTable2EventSelection(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Selected)), "events-selected")
		printOnce("Table 2", r.String())
	}
}

func BenchmarkTable3Collection(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.PartA.Total()+r.PartB.Total()), "instances")
		printOnce("Table 3", r.String())
	}
}

func BenchmarkTable4CrossValidation(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		conf, err := lab.Table4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*conf.Accuracy(), "cv-accuracy-%")
		printOnce("Table 4", conf.String())
	}
}

func BenchmarkFigure2Tree(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Leaves), "leaves")
		b.ReportMetric(float64(r.Size), "nodes")
		printOnce("Figure 2", r.String())
	}
}

func BenchmarkTable5SuiteClassification(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table5()
		if err != nil {
			b.Fatal(err)
		}
		match, total := r.Agreement()
		b.ReportMetric(float64(match), "programs-agree")
		b.ReportMetric(float64(total), "programs-total")
		printOnce("Table 5", r.String())
	}
}

func BenchmarkTable6LinearRegressionDetail(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Count()["bad-fs"]), "bad-fs-cases")
		printOnce("Table 6", r.String())
	}
}

func BenchmarkTable7LinearRegressionRates(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table7()
		if err != nil {
			b.Fatal(err)
		}
		// Paper's headline: O0/O1 rates 15x-25x over O2.
		o0 := r.Cells[r.Inputs[0]][machine.O0][3].FSRate
		o2 := r.Cells[r.Inputs[0]][machine.O2][3].FSRate
		if o2 > 0 {
			b.ReportMetric(o0/o2, "rate-gap-x")
		}
		printOnce("Table 7", r.String())
	}
}

func BenchmarkTable8StreamclusterDetail(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Count()["bad-fs"]), "bad-fs-cases")
		printOnce("Table 8", r.String())
	}
}

func BenchmarkTable9StreamclusterRates(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table9()
		if err != nil {
			b.Fatal(err)
		}
		small := r.Cells["simsmall"][machine.O2][4].FSRate
		large := r.Cells[r.Inputs[len(r.Inputs)-1]][machine.O2][4].FSRate
		if large > 0 {
			b.ReportMetric(small/large, "rate-decline-x")
		}
		printOnce("Table 9", r.String())
	}
}

func BenchmarkTable10Verification(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		t10, err := lab.Table10()
		if err != nil {
			b.Fatal(err)
		}
		t11 := exps.Table11(t10)
		b.ReportMetric(100*t11.Correctness(), "correctness-%")
		b.ReportMetric(float64(t11.FP), "false-positives")
		printOnce("Table 10", t10.String())
		printOnce("Table 11", t11.String())
	}
}

func BenchmarkOverheadComparison(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Overhead()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range r.Rows {
			if o := row.MonitorOverhead(); o > worst {
				worst = o
			}
		}
		b.ReportMetric(100*worst, "worst-pmu-overhead-%")
		printOnce("Overhead", r.String())
	}
}

func BenchmarkAblationClassifierChoice(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.ClassifierAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "C4.5" {
				b.ReportMetric(100*r.Accuracy, "c45-accuracy-%")
			}
		}
		printOnce("Ablation: classifier", exps.RenderClassifierAblation(rows))
	}
}

func BenchmarkAblationFeatureSet(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.FeatureAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: features", exps.RenderFeatureAblation(rows))
	}
}

func BenchmarkAblationPMUQuality(b *testing.B) {
	if testing.Short() {
		b.Skip("retrains three labs")
	}
	quick := &exps.Lab{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := quick.PMUAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: PMU quality", exps.RenderPMUAblation(rows))
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: simulator and classifier throughput.

func BenchmarkSimLoadL1Hit(b *testing.B) {
	h := cache.New(cache.DefaultConfig(), 1)
	h.Load(0, 0x10000)
	for i := 0; i < 20; i++ {
		h.Load(0, 0x10000) // drain the fill window
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 0x10000)
	}
}

func BenchmarkSimStorePingPong(b *testing.B) {
	h := cache.New(cache.DefaultConfig(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store(i%2, 0x10000+uint64(i%2)*8)
	}
}

func BenchmarkSimStreamingScan(b *testing.B) {
	h := cache.New(cache.DefaultConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 0x10000+uint64(i)*8)
	}
}

func BenchmarkMachineRunThroughput(b *testing.B) {
	sp := mem.NewSpace(1 << 24)
	arr := mem.NewArray(sp, 1<<18, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig())
		kernels := make([]machine.Kernel, 4)
		for tid := 0; tid < 4; tid++ {
			start := tid * (1 << 16)
			kernels[tid] = &machine.IterKernel{I: start, End: start + (1 << 16),
				Body: func(ctx *machine.Ctx, j int) { ctx.Load(arr.Addr(j)); ctx.Exec(1) }}
		}
		res := m.Run(kernels)
		b.SetBytes(int64(res.Instructions))
	}
}

func BenchmarkC45Training(b *testing.B) {
	lab := benchLab(b)
	d, err := lab.TrainingData()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.NewC45(ml.DefaultC45()).TrainTree(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorClassify(b *testing.B) {
	lab := benchLab(b)
	det, err := lab.Detector()
	if err != nil {
		b.Fatal(err)
	}
	d, err := lab.TrainingData()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := d.Instances[i%d.Len()]
		_ = det.FlatTree().Predict(in.Features)
	}
}

func BenchmarkShadowToolOverhead(b *testing.B) {
	kernels, err := fsml.BuildMiniProgram(fsml.MiniProgramSpec{
		Program: "pdot", Size: 20000, Threads: 4, Mode: fsml.BadFS, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsml.ShadowVerify(fsml.DefaultMachine(), kernels); err != nil {
			b.Fatal(err)
		}
		// Rebuild: kernels are stateful.
		kernels, _ = fsml.BuildMiniProgram(fsml.MiniProgramSpec{
			Program: "pdot", Size: 20000, Threads: 4, Mode: fsml.BadFS, Seed: 3,
		})
	}
}

func BenchmarkAblationPartB(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.PartBAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: Part B", exps.RenderPartBAblation(rows))
	}
}

func BenchmarkSlicedDetection(b *testing.B) {
	lab := benchLab(b)
	det, err := lab.Detector()
	if err != nil {
		b.Fatal(err)
	}
	c := lab.Collector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels, err := fsml.BuildMiniProgram(fsml.MiniProgramSpec{
			Program: "pdot", Size: 60000, Threads: 6, Mode: fsml.BadFS, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		profile, err := c.DetectSliced(det, 9, kernels, 500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(profile.Slices)), "slices")
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.BaselineComparison()
		if err != nil {
			b.Fatal(err)
		}
		over := 0
		for _, r := range rows {
			if r.SheriffDetected && !r.ShadowDetected {
				over++
			}
		}
		b.ReportMetric(float64(over), "sheriff-overreports")
		printOnce("Baselines", exps.RenderBaselineComparison(rows))
	}
}

func BenchmarkCrossPlatform(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.CrossPlatform()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Cross-platform", exps.RenderCrossPlatform(rows))
	}
}

func BenchmarkAblationQuantum(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.QuantumAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: quantum", exps.RenderQuantumAblation(rows))
	}
}

func BenchmarkAblationCacheFeatures(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.CacheFeatureAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: cache features", exps.RenderCacheFeatureAblation(rows))
	}
}

func BenchmarkMapReduceSubstrate(b *testing.B) {
	lab := benchLab(b)
	det, err := lab.Detector()
	if err != nil {
		b.Fatal(err)
	}
	c := lab.Collector()
	job := fsml.MapReduceJob{Records: 60000, MapCost: 3, EmitEvery: 4, Keys: 64, ReduceCost: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, packed := range []bool{true, false} {
			kernels, err := fsml.BuildMapReduce(job, fsml.MapReduceConfig{Workers: 8, PackedCounters: packed, CounterEvery: 2, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			obs := c.Measure("mapred", 5, kernels)
			if _, err := det.ClassifyObservation(obs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationProtocol(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.ProtocolAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: protocol", exps.RenderProtocolAblation(rows))
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		rows, err := lab.PlacementAblation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Ablation: placement", exps.RenderPlacementAblation(rows))
	}
}

func BenchmarkTrueSharingLimitation(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.TrueSharingLimitation()
		if err != nil {
			b.Fatal(err)
		}
		printOnce("Limitation", r.String())
	}
}

func BenchmarkStabilityStudy(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		for _, sc := range exps.DefaultStabilityCases() {
			r, err := lab.StabilityStudy(sc.Program, sc.Case, 12)
			if err != nil {
				b.Fatal(err)
			}
			printOnce("Stability: "+sc.Program, r.String())
		}
	}
}

func BenchmarkIterativeTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := exps.NewQuickLab()
		res, err := fsml.IterativeTrain(fsml.TrainOptions{Quick: lab.Quick}, 0.98)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Steps)), "rounds")
		printOnce("Iterative training", res.String())
	}
}

// ---------------------------------------------------------------------------
// Batch-engine benchmarks: the same deterministic work at parallelism 1
// (the sequential reference path) and 0 (all CPUs). On a multi-core host
// the Parallel variants show the fan-out speedup; on a single-core host
// they bound the engine's scheduling overhead, since both settings
// produce bit-identical results.

func benchmarkQuickCollect(b *testing.B, par int) {
	b.Helper()
	lab := exps.NewQuickLab()
	c := core.NewCollector()
	c.Parallelism = par
	grid := lab.GridA()
	progs := miniprog.MultiThreadedSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := c.Collect(progs, grid)
		if err != nil {
			b.Fatal(err)
		}
		if len(obs) == 0 {
			b.Fatal("no observations")
		}
	}
}

func BenchmarkQuickCollectSequential(b *testing.B) { benchmarkQuickCollect(b, 1) }
func BenchmarkQuickCollectParallel(b *testing.B)   { benchmarkQuickCollect(b, 0) }

func benchmarkQuickTrain(b *testing.B, par int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, rep, err := fsml.Train(fsml.TrainOptions{Quick: true, Seed: 7, Parallelism: par})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep.CVAccuracy, "cv%")
	}
}

func BenchmarkQuickTrainSequential(b *testing.B) { benchmarkQuickTrain(b, 1) }
func BenchmarkQuickTrainParallel(b *testing.B)   { benchmarkQuickTrain(b, 0) }

func benchmarkClassifySweep(b *testing.B, par int) {
	b.Helper()
	det, _, err := fsml.Train(fsml.TrainOptions{Quick: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := fsml.ClassifyProgram(det, "histogram", fsml.SweepOptions{Quick: true, Seed: 7, Parallelism: par})
		if err != nil {
			b.Fatal(err)
		}
		if len(v.Cases) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkClassifySweepSequential(b *testing.B) { benchmarkClassifySweep(b, 1) }
func BenchmarkClassifySweepParallel(b *testing.B)   { benchmarkClassifySweep(b, 0) }
