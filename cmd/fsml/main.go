// Command fsml is the command-line front end of the false-sharing
// detector: train a model from the mini-programs, classify benchmark
// programs with it, inspect the learned tree, run the shadow-memory
// verification tool, and regenerate any of the paper's tables.
//
// Usage:
//
//	fsml train   [-quick] [-seed N] [-j N] [-ensemble [-ensemble-spec S]] [-o model.json]
//	fsml classify [-quick] [-model model.json] [-j N] [-faults SPEC] [-ensemble] <program>...
//	fsml classify -perf FILE [-model model.json] [-server URL [-retries N]] [-ensemble]
//	fsml tree    [-quick] [-model model.json] [-j N]
//	fsml events  [-quick] [-j N]
//	fsml shadow  [-threads N] [-input NAME] [-opt LEVEL] <program>
//	fsml repro   [-quick] [-j N] [-faults SPEC] <table1|...|fault-matrix|all>
//	fsml serve   [-addr A] [-j N] [-registry-dir DIR]
//	             [-max-inflight N] [-shed-after D] [-breaker-threshold N]
//	             [-breaker-cooldown D] [-faults SPEC]
//	fsml watch   [-window S[:T[:H]]] [-seed N] [-threads N] [-iters N]
//	             [-slice-rounds N] [-drift=0] [-json] [-server URL]
//	fsml list
//
// The -j flag caps concurrent case simulations (0 = all CPUs,
// 1 = sequential); results are bit-identical at every setting. The
// -faults flag injects deterministic counter faults (e.g.
// "rate=0.2,seed=7,kinds=saturate+stuck") and switches sweeps to
// tolerant, retrying mode.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fsml"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "tree":
		err = cmdTree(os.Args[2:])
	case "events":
		err = cmdEvents(os.Args[2:])
	case "shadow":
		err = cmdShadow(os.Args[2:])
	case "measure":
		err = cmdMeasure(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "record":
		err = cmdRecord(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "platform":
		err = cmdPlatform(os.Args[2:])
	case "repro":
		err = cmdRepro(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "lifecycle":
		err = cmdLifecycle(os.Args[2:])
	case "list":
		err = cmdList()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fsml: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsml:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  fsml train    [-quick] [-seed N] [-j N] [-o model.json]
                                                     collect + train a detector
  fsml train    -ensemble [-ensemble-spec S] [-quick] [-seed N] [-j N] [-o F]
                                                     train the multi-pathology
                                                     ensemble on the widened grids
  fsml classify [-quick] [-model F] [-j N] [-faults SPEC] <program>...
                                                     classify benchmark programs
  fsml classify -ensemble [-model F] [-quick] [-j N] <program>...
                                                     rank every pathology
  fsml classify -perf FILE [-model F] [-server URL [-retries N]] [-ensemble]
                                                     classify real perf output
                                                     (perf stat / c2c; "-" = stdin)
  fsml tree     [-quick] [-model F] [-j N]           print the decision tree
  fsml events   [-quick] [-j N]                      run the event-selection step
  fsml shadow   [-threads N] [-input NAME] [-opt N] <program>
                                                     run the verification tool
  fsml measure  [-threads N] [-input NAME] [-opt N] <program>
                                                     print the normalized event vector
  fsml trace    [-quick] [-model F] [-verify] [-server URL [-retries N] [-bin]] <file>...
                                                     classify access-trace files
                                                     (locally, or via a server)
  fsml record   [-threads N] [-input NAME] [-opt N] [-o FILE] <program>
                                                     record a program run as a trace
  fsml report   [-quick] [-model F] [-j N] [-json] [-o FILE] <program>
                                                     full analysis report (md or json)
  fsml platform [-quick] [-j N] <name>               retrain for a platform (steps 2-6)
  fsml repro    [-quick] [-j N] [-faults SPEC] <experiment|all>
                                                     regenerate a paper table
  fsml serve    [-addr A] [-j N] [-registry-dir DIR]
                [-max-inflight N] [-shed-after D] [-breaker-threshold N]
                [-breaker-cooldown D] [-faults SPEC] [-lifecycle SPEC]
                                                     run the detection server
                                                     (-lifecycle "on" or
                                                     "alarms=3,window=2m,..."
                                                     enables self-healing)
  fsml fleet    -peers URL,URL,... [-addr A] [-replicas N] [-vnodes N]
                [-probe-interval D] [-probe-timeout D] [-breaker-threshold N]
                [-breaker-cooldown D] [-quiet]        route a fleet of servers
  fsml watch    [-window S[:T[:H]]] [-seed N] [-threads N] [-iters N]
                [-slice-rounds N] [-drift=0] [-json] [-quick] [-model F] [-j N]
                [-server URL [-retries N] [-detector KEY]]
                                                     live-monitor the phased demo
                                                     (locally, or via a server)
  fsml lifecycle [-server URL] [-limit N] [-json] [status|history]
                                                     inspect a server's model
                                                     lifecycle (drift, shadow,
                                                     promote/rollback history)
  fsml list                                          list programs & experiments
`)
}

// jobsFlag registers the shared -j knob on a flag set.
func jobsFlag(fs *flag.FlagSet) *int {
	return fs.Int("j", 0, "max concurrent case simulations (0 = all CPUs, 1 = sequential)")
}

// faultsFlag registers the shared -faults knob on a flag set.
func faultsFlag(fs *flag.FlagSet) *string {
	return fs.String("faults", "off",
		`inject counter faults, e.g. "rate=0.2,seed=7,kinds=saturate+stuck" ("off" = honest counters)`)
}

// timeoutFlag registers the shared -timeout knob on a flag set.
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "abort the run after this long (0 = no deadline), e.g. 90s")
}

// timeoutContext turns a -timeout value into a context, mirroring the
// per-request deadline behavior of the serving handlers: zero means no
// deadline, anything else cancels the sweep mid-batch when it expires.
func timeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// loadOrTrain returns a detector: from -model if given, else trained.
func loadOrTrain(path string, quick bool, jobs int) (*fsml.Detector, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return fsml.DecodeDetector(data)
	}
	fmt.Fprintln(os.Stderr, "fsml: no -model given; training one (use `fsml train -o model.json` to cache)")
	det, rep, err := fsml.Train(fsml.TrainOptions{Quick: quick, Parallelism: jobs})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "fsml: trained on %d instances, CV accuracy %.1f%%\n",
		rep.Data.Len(), 100*rep.CVAccuracy)
	return det, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use reduced collection grids")
	seed := fs.Uint64("seed", 1, "training seed")
	jobs := jobsFlag(fs)
	ens := fs.Bool("ensemble", false, "train the multi-pathology ensemble (widened grids + bagged committees) instead of the 3-class detector")
	ensSpec := fs.String("ensemble-spec", "", `ensemble growth parameters, e.g. "members=5,sample=0.8,seed=42" (with -ensemble; "" = defaults)`)
	out := fs.String("o", "", "output model path (default model.json, or ensemble.json with -ensemble)")
	fs.Parse(args)
	if *ens {
		return trainEnsemble(*quick, *seed, *jobs, *ensSpec, *out)
	}
	if *ensSpec != "" {
		return fmt.Errorf("-ensemble-spec configures -ensemble training")
	}
	path := *out
	if path == "" {
		path = "model.json"
	}

	det, rep, err := fsml.Train(fsml.TrainOptions{Quick: *quick, Seed: *seed, Parallelism: *jobs})
	if err != nil {
		return err
	}
	fmt.Printf("training set: %d instances (Part A: %d, Part B: %d)\n",
		rep.Data.Len(), rep.PartA.Total(), rep.PartB.Total())
	fmt.Printf("10-fold CV accuracy: %.1f%%\n", 100*rep.CVAccuracy)
	fmt.Printf("tree: %d leaves, %d nodes\n", rep.Tree.Leaves(), rep.Tree.Size())
	blob, err := fsml.EncodeDetector(det)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", path)
	return nil
}

// trainEnsemble runs `fsml train -ensemble`: base detector, widened
// grids, bagged committees, one serialized fsml-ensemble-v1 file.
func trainEnsemble(quick bool, seed uint64, jobs int, specStr, out string) error {
	spec, err := fsml.ParseEnsembleSpec(specStr)
	if err != nil {
		return err
	}
	if out == "" {
		out = "ensemble.json"
	}
	det, err := fsml.TrainEnsemble(fsml.TrainOptions{Quick: quick, Seed: seed, Parallelism: jobs}, spec)
	if err != nil {
		return err
	}
	fmt.Printf("ensemble: %d classes (%s), %d committee members + base tree, %d attributes\n",
		len(det.Classes), strings.Join(det.Classes, ", "), len(det.Members), len(det.Attrs))
	if err := det.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf("ensemble written to %s\n", out)
	return nil
}

// loadEnsemble returns an ensemble: from path if given, else trained.
func loadEnsemble(path string, quick bool, jobs int) (*fsml.EnsembleDetector, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return fsml.DecodeEnsemble(data)
	}
	fmt.Fprintln(os.Stderr, "fsml: no -model given; training an ensemble (use `fsml train -ensemble -o ensemble.json` to cache)")
	return fsml.TrainEnsemble(fsml.TrainOptions{Quick: quick, Parallelism: jobs}, fsml.DefaultEnsembleSpec())
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced sweep and training")
	model := fs.String("model", "", "trained model path (default: train now)")
	perf := fs.String("perf", "", "classify real `perf stat` / `perf c2c report` output from this file (\"-\" = stdin) instead of simulating programs")
	server := fs.String("server", "", "with -perf: classify via a running `fsml serve` at this URL instead of a local model")
	retries := fs.Int("retries", 4, "client retries when the server sheds or is briefly unavailable (with -server)")
	ens := fs.Bool("ensemble", false, "rank every pathology with the multi-label ensemble instead of the 3-class detector")
	jobs := jobsFlag(fs)
	faultSpec := faultsFlag(fs)
	timeout := timeoutFlag(fs)
	fs.Parse(args)
	if *perf != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("classify -perf takes no program names (the perf capture is the workload)")
		}
		return classifyPerf(*perf, *server, *retries, *model, *quick, *jobs, *ens)
	}
	if *server != "" {
		return fmt.Errorf("-server applies to -perf captures; program sweeps run locally")
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("classify needs at least one program name (see `fsml list`)")
	}
	if *ens {
		if *faultSpec != "off" {
			return fmt.Errorf("-faults applies to the 3-class sweep; the ensemble path measures honestly")
		}
		return classifyEnsemblePrograms(names, *model, *quick, *jobs)
	}
	fcfg, err := fsml.ParseFaultSpec(*faultSpec)
	if err != nil {
		return err
	}
	det, err := loadOrTrain(*model, *quick, *jobs)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	for _, name := range names {
		v, err := fsml.ClassifyProgramContext(ctx, det, name, fsml.SweepOptions{Quick: *quick, Parallelism: *jobs, Faults: fcfg})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-8s (", name, v.Class)
		first := true
		for _, m := range fsml.AllModes() {
			if n := v.Histogram[m.String()]; n > 0 {
				if !first {
					fmt.Print(", ")
				}
				fmt.Printf("%d/%d %s", n, len(v.Cases), m)
				first = false
			}
		}
		fmt.Println(")")
		if fcfg.Enabled() {
			degraded, failed := 0, 0
			for _, c := range v.Cases {
				if c.Failed {
					failed++
				} else if c.Degraded {
					degraded++
				}
			}
			fmt.Printf("  faults %s: %d/%d degraded, %d/%d failed\n",
				fcfg, degraded, len(v.Cases), failed, len(v.Cases))
		}
	}
	return nil
}

// classifyEnsemblePrograms runs `fsml classify -ensemble <program>...`:
// each program's default case is measured with the widened event set
// and ranked over the full pathology label space.
func classifyEnsemblePrograms(names []string, model string, quick bool, jobs int) error {
	det, err := loadEnsemble(model, quick, jobs)
	if err != nil {
		return err
	}
	for _, name := range names {
		w, ok := fsml.LookupWorkload(name)
		if !ok {
			return fmt.Errorf("unknown program %q (see `fsml list`)", name)
		}
		cs := fsml.Case{Input: w.Inputs[0].Name, Threads: 6, Opt: fsml.O2, Seed: 1}
		// NUMA-analog workloads only surface remote-DRAM traffic on
		// the two-socket machine; everything else runs the default.
		cfg := fsml.DefaultMachine()
		if w.PaperClass == "numa-remote" {
			cfg = fsml.NUMAMachine()
		}
		res, _, err := fsml.DetectPathologiesOn(det, cfg, w.Build(cs))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-18s %-12s (confidence %.3f)\n", name, res.Class, res.Confidence)
		for _, p := range res.Pathologies {
			fmt.Printf("  %-14s %.3f\n", p.Class, p.Score)
		}
		printPerfCaveats(res.Degraded, res.MissingEvents, nil)
	}
	return nil
}

// classifyPerf classifies a real perf capture: read it (file or
// stdin), then either upload it raw to a server or parse + map + rank
// it locally — with the 3-class detector, or over the full pathology
// label space when ens is set. Missing events degrade the verdict's
// confidence; the mapping summary says how much of the capture was
// actually used.
func classifyPerf(path, server string, retries int, model string, quick bool, jobs int, ens bool) error {
	label := path
	var data []byte
	var err error
	if path == "-" {
		label = "<stdin>"
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	if server != "" {
		c := fsml.NewServeClient(server)
		c.Retry = fsml.ServeRetryPolicy{Max: retries}
		var resp *fsml.ClassifyResponse
		if ens {
			resp, err = c.ClassifyPerfEnsemble(context.Background(), "", data)
		} else {
			resp, err = c.ClassifyPerf(context.Background(), "", data)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fmt.Printf("%-24s %-8s (confidence %.3f, %s format, detector %s)\n",
			label, resp.Class, resp.Confidence, resp.PerfFormat, resp.Detector)
		for _, p := range resp.Pathologies {
			fmt.Printf("  %-14s %.3f\n", p.Class, p.Score)
		}
		printPerfCaveats(resp.Degraded, resp.Suspects, resp.UnmappedEvents)
		return nil
	}
	rep, err := fsml.ParsePerf(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	// The ensemble reports the attributes the capture lacked itself and
	// ranks every pathology; the single detector has neither.
	var det fsml.Classifier
	width := 8
	if ens {
		e, err := loadEnsemble(model, quick, jobs)
		if err != nil {
			return err
		}
		det, width = e, 12
	} else {
		d, err := loadOrTrain(model, quick, jobs)
		if err != nil {
			return err
		}
		det = d
	}
	rr, mapping, err := fsml.ClassifyPerf(det, rep)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	fmt.Printf("%-24s %-*s (confidence %.3f, %s format, %d events)\n",
		label, width, rr.Class, rr.Confidence, rep.Format, len(rep.Events))
	for _, p := range rr.Pathologies {
		fmt.Printf("  %-14s %.3f\n", p.Class, p.Score)
	}
	missing := mapping.Missing
	if ens {
		missing = rr.MissingEvents
	}
	printPerfCaveats(rr.Degraded, missing, mapping.Unmapped)
	return nil
}

// printPerfCaveats renders the partial-coverage warnings of a perf
// verdict: features the capture did not measure (degrading the
// classification) and perf events no alias maps.
func printPerfCaveats(degraded bool, missing, unmapped []string) {
	if degraded {
		fmt.Printf("  degraded: missing events %s\n", strings.Join(missing, ", "))
	}
	if len(unmapped) > 0 {
		fmt.Printf("  unmapped perf events (ignored): %s\n", strings.Join(unmapped, ", "))
	}
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced training")
	model := fs.String("model", "", "trained model path (default: train now)")
	jobs := jobsFlag(fs)
	fs.Parse(args)
	det, err := loadOrTrain(*model, *quick, *jobs)
	if err != nil {
		return err
	}
	fmt.Print(det.Tree.String())
	return nil
}

func cmdEvents(args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced probe grid")
	jobs := jobsFlag(fs)
	fs.Parse(args)
	out, err := fsml.ReproduceWith("table2", fsml.ExperimentOptions{Quick: *quick, Parallelism: *jobs})
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdShadow(args []string) error {
	fs := flag.NewFlagSet("shadow", flag.ExitOnError)
	threads := fs.Int("threads", 4, "thread count (max 8: the tool's limit)")
	input := fs.String("input", "", "input set name (default: smallest)")
	opt := fs.Int("opt", 2, "optimization level 0-3")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("shadow needs exactly one program name")
	}
	w, ok := fsml.LookupWorkload(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown program %q (see `fsml list`)", fs.Arg(0))
	}
	in := *input
	if in == "" {
		in = w.Inputs[0].Name
	}
	cs := fsml.Case{Input: in, Threads: *threads, Opt: fsml.OptLevel(*opt), Seed: 1}
	rep, err := fsml.ShadowVerify(fsml.DefaultMachine(), w.Build(cs))
	if err != nil {
		return err
	}
	fmt.Printf("%s %s: false-sharing rate %.9f (events: %d fs / %d ts over %d instructions)\n",
		w.Name, cs, rep.FSRate, rep.FalseSharing, rep.TrueSharing, rep.Instructions)
	if rep.Detected {
		fmt.Println("verdict: FALSE SHARING (rate > 1e-3)")
	} else {
		fmt.Println("verdict: no false sharing (rate <= 1e-3)")
	}
	return nil
}

func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	threads := fs.Int("threads", 6, "thread count")
	input := fs.String("input", "", "input set name (default: smallest)")
	opt := fs.Int("opt", 2, "optimization level 0-3")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("measure needs exactly one program name")
	}
	w, ok := fsml.LookupWorkload(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown program %q (see `fsml list`)", fs.Arg(0))
	}
	in := *input
	if in == "" {
		in = w.Inputs[0].Name
	}
	cs := fsml.Case{Input: in, Threads: *threads, Opt: fsml.OptLevel(*opt), Seed: 1}
	c := fsml.NewCollector()
	obs := c.Measure(w.Name, 1, w.Build(cs))
	fv, err := obs.Sample.FeatureVector()
	if err != nil {
		return err
	}
	fmt.Printf("%s %s: %d instructions, %.4f simulated s\n", w.Name, cs, obs.Result.Instructions, obs.Seconds)
	fmt.Printf("%-4s %-42s %s\n", "#", "event", "count/instruction")
	for i, name := range fsml.FeatureNames() {
		fmt.Printf("%-4d %-42s %.9f\n", i+1, name, fv[i])
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced training")
	model := fs.String("model", "", "trained model path (default: train now)")
	verify := fs.Bool("verify", false, "also run the shadow-memory verification tool")
	server := fs.String("server", "", "classify via a running `fsml serve` at this URL instead of a local model")
	retries := fs.Int("retries", 4, "client retries when the server sheds or is briefly unavailable (with -server)")
	bin := fs.Bool("bin", false, "use the binary classify protocol instead of JSON (with -server)")
	jobs := jobsFlag(fs)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("trace needs at least one trace file")
	}
	if *bin && *server == "" {
		return fmt.Errorf("-bin selects the server wire protocol; it needs -server")
	}
	if *server != "" {
		if *verify {
			return fmt.Errorf("-verify runs locally; drop it when classifying via -server")
		}
		// Remote path: upload each trace and let the retry policy ride
		// out sheds (429) and shutdown blips (503).
		c := fsml.NewServeClient(*server)
		c.Retry = fsml.ServeRetryPolicy{Max: *retries}
		for _, path := range fs.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if *bin {
				resp, err := c.ClassifyBinary(context.Background(), &fsml.BinClassifyRequest{Trace: data})
				if err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
				v := resp.Verdicts[0]
				fmt.Printf("%-24s %-8s (detector %s, %.4f simulated s)\n", path, v.Class, resp.Detector, v.Seconds)
				continue
			}
			resp, err := c.Classify(context.Background(), fsml.ClassifyRequest{Trace: data})
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Printf("%-24s %-8s (detector %s, %.4f simulated s)\n", path, resp.Class, resp.Detector, resp.Seconds)
		}
		return nil
	}
	det, err := loadOrTrain(*model, *quick, *jobs)
	if err != nil {
		return err
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		tr, err := fsml.ParseTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		class, obs, err := fsml.DetectTrace(det, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%-24s %-8s (%d threads, %d instructions, %.4f simulated s)\n",
			path, class, tr.NumThreads(), obs.Result.Instructions, obs.Seconds)
		if *verify {
			rep, err := fsml.ShadowVerify(fsml.DefaultMachine(), tr.Kernels())
			if err != nil {
				fmt.Printf("  shadow tool: %v\n", err)
				continue
			}
			fmt.Printf("  shadow tool: rate %.9f, detected=%v\n", rep.FSRate, rep.Detected)
		}
	}
	return nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	threads := fs.Int("threads", 4, "thread count")
	input := fs.String("input", "", "input set name (default: smallest)")
	opt := fs.Int("opt", 2, "optimization level 0-3")
	out := fs.String("o", "", "output trace path (default: <program>.trace)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("record needs exactly one program name")
	}
	w, ok := fsml.LookupWorkload(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown program %q (see `fsml list`)", fs.Arg(0))
	}
	in := *input
	if in == "" {
		in = w.Inputs[0].Name
	}
	cs := fsml.Case{Input: in, Threads: *threads, Opt: fsml.OptLevel(*opt), Seed: 1}
	tr, res := fsml.RecordTrace(fsml.DefaultMachine(), w.Build(cs))
	path := *out
	if path == "" {
		path = w.Name + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fsml.WriteTrace(f, tr); err != nil {
		return err
	}
	fmt.Printf("recorded %s %s: %d threads, %d trace records, %d instructions -> %s\n",
		w.Name, cs, tr.NumThreads(), tr.Ops(), res.Instructions, path)
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced training and sweep")
	model := fs.String("model", "", "trained model path (default: train now)")
	asJSON := fs.Bool("json", false, "emit JSON instead of Markdown")
	jobs := jobsFlag(fs)
	timeout := timeoutFlag(fs)
	out := fs.String("o", "", "output path (default: stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report needs exactly one program name")
	}
	det, err := loadOrTrain(*model, *quick, *jobs)
	if err != nil {
		return err
	}
	opts := fsml.ReportOptions{Parallelism: *jobs}
	if *quick {
		opts.Threads = []int{6}
		opts.MaxInputs = 1
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	rep, err := fsml.BuildReportContext(ctx, det, fs.Arg(0), opts)
	if err != nil {
		return err
	}
	var blob []byte
	if *asJSON {
		blob, err = rep.JSON()
		if err != nil {
			return err
		}
	} else {
		blob = []byte(rep.Markdown())
	}
	if *out == "" {
		fmt.Print(string(blob))
		return nil
	}
	return os.WriteFile(*out, blob, 0o644)
}

func cmdPlatform(args []string) error {
	fs := flag.NewFlagSet("platform", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced grids")
	jobs := jobsFlag(fs)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Println("available platforms:")
		for _, p := range fsml.Platforms() {
			fmt.Printf("  %-18s %d cores, %d candidate events\n", p.Name, p.Machine.Cores, len(p.Catalogue))
		}
		return nil
	}
	name := strings.Join(fs.Args(), " ")
	pd, err := fsml.TrainForPlatform(name, fsml.TrainOptions{Quick: *quick, Parallelism: *jobs})
	if err != nil {
		return err
	}
	fmt.Printf("platform %s: selected %d events (+ normalizer)\n", pd.Platform.Name, len(pd.Selection.Selected)-1)
	fmt.Print(pd.Selection.String())
	fmt.Printf("\ntrained on %d instances; tree:\n%s", pd.Data.Len(), pd.Detector.Tree.String())
	return nil
}

func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced grids")
	jobs := jobsFlag(fs)
	faultSpec := faultsFlag(fs)
	timeout := timeoutFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("repro needs one experiment name or 'all' (see `fsml list`)")
	}
	fcfg, err := fsml.ParseFaultSpec(*faultSpec)
	if err != nil {
		return err
	}
	names := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		names = fsml.Experiments()
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	for _, name := range names {
		out, err := fsml.ReproduceContext(ctx, name, fsml.ExperimentOptions{Quick: *quick, Parallelism: *jobs, Faults: fcfg})
		if err != nil {
			return err
		}
		fmt.Printf("===== %s =====\n%s\n", name, out)
	}
	return nil
}

// cmdServe runs the long-running detection server until interrupted,
// then drains in-flight requests before exiting.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8723", "listen address (host:port; :0 picks a free port)")
	jobs := jobsFlag(fs)
	registryDir := fs.String("registry-dir", "", "persist models here and warm-start from it on boot")
	quick := fs.Bool("quick", true, "default detector trains on the reduced grids")
	seed := fs.Uint64("seed", 1, "default detector training seed")
	maxInflight := fs.Int("max-inflight", 64, "admitted requests per heavy endpoint before shedding (negative = unlimited)")
	shedAfter := fs.Duration("shed-after", 100*time.Millisecond, "how long an over-limit request may wait for a slot before a 429 (negative = shed immediately)")
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive training failures that open a train spec's circuit (negative = no breakers)")
	breakerCooldown := fs.Duration("breaker-cooldown", 15*time.Second, "open-circuit wait before one half-open retrain probe")
	lcSpec := fs.String("lifecycle", "", `self-healing model lifecycle: "on" for defaults, or "alarms=3,window=2m,clear=2,every=1,shadow=64,agree=0.9,conf=0,probation=64,regress=0.25" ("" = off)`)
	faultSpec := faultsFlag(fs)
	fs.Parse(args)
	fcfg, err := fsml.ParseFaultSpec(*faultSpec)
	if err != nil {
		return err
	}
	var lcfg *fsml.LifecycleConfig
	if *lcSpec != "" {
		spec, err := fsml.ParseLifecycleSpec(*lcSpec)
		if err != nil {
			return err
		}
		lcfg = &fsml.LifecycleConfig{Spec: spec}
	}
	srv := fsml.NewServer(fsml.ServeConfig{
		Addr:             *addr,
		Parallelism:      *jobs,
		RegistryDir:      *registryDir,
		DefaultDetector:  fsml.DetectorSpec{Quick: *quick, Seed: *seed}.Key(),
		Faults:           fcfg,
		MaxInflight:      *maxInflight,
		ShedAfter:        *shedAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Lifecycle:        lcfg,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fsml: serving on http://%s (max-inflight=%d; ^C to stop)\n", srv.Addr(), *maxInflight)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "fsml: shutting down, draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// cmdFleet runs the consistent-hash coordinator in front of a set of
// `fsml serve` backends: sharded routing, model replication, failover
// on node loss, rebalance on recovery.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8800", "coordinator listen address (host:port; :0 picks a free port)")
	peers := fs.String("peers", "", "comma-separated backend base URLs, e.g. http://127.0.0.1:8723,http://127.0.0.1:8724 (required)")
	replicas := fs.Int("replicas", 2, "ring successors that receive each uploaded model")
	vnodes := fs.Int("vnodes", 0, "virtual ring points per peer (0 = default)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "peer health-probe cadence (jittered)")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "timeout of one peer probe")
	breakerThreshold := fs.Int("breaker-threshold", 2, "consecutive peer failures that open its circuit")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "open peer circuit wait before the next probe may close it")
	quiet := fs.Bool("quiet", false, "suppress probe/failover/replication logs")
	fs.Parse(args)
	if *peers == "" {
		return fmt.Errorf("fleet: -peers is required")
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	cfg := fsml.FleetConfig{
		Addr:             *addr,
		Peers:            peerList,
		Replicas:         *replicas,
		VNodes:           *vnodes,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}
	if !*quiet {
		cfg.Logf = log.New(os.Stderr, "", log.LstdFlags).Printf
	}
	co, err := fsml.NewFleet(cfg)
	if err != nil {
		return err
	}
	if err := co.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fsml: fleet coordinator on http://%s over %d peers (replicas=%d; ^C to stop)\n",
		co.Addr(), len(peerList), *replicas)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "fsml: coordinator shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return co.Shutdown(ctx)
}

// cmdWatch live-monitors the phased demo workload: window verdicts,
// phase transitions and drift alarms stream to stdout as they happen,
// either from a local session or relayed from a server's /v1/watch SSE
// endpoint. ^C truncates cleanly — the closing summary still prints,
// marked truncated.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	window := fs.String("window", "", `window spec "size[:stride[:hysteresis]]" (default 8:8:3)`)
	seed := fs.Uint64("seed", 1, "session seed (machine + PMU)")
	threads := fs.Int("threads", 6, "demo workload worker threads")
	iters := fs.Int("iters", 20000, "per-phase iterations per thread")
	sliceRounds := fs.Int("slice-rounds", 500, "scheduler rounds per slice sample")
	drift := fs.Bool("drift", true, "raise drift alarms against the model's tree envelope")
	asJSON := fs.Bool("json", false, "emit raw event JSON lines instead of the readable feed")
	quick := fs.Bool("quick", false, "reduced training (without -model/-server)")
	model := fs.String("model", "", "trained model path (default: train now)")
	jobs := jobsFlag(fs)
	server := fs.String("server", "", "watch via a running `fsml serve` at this URL instead of a local session")
	retries := fs.Int("retries", 4, "client dial retries when the server sheds or is briefly unavailable (with -server)")
	detector := fs.String("detector", "", "server-side detector registry key (with -server; \"\" = server default)")
	fs.Parse(args)
	if fs.NArg() > 1 || (fs.NArg() == 1 && fs.Arg(0) != fsml.StreamDemoProgram) {
		return fmt.Errorf("watch streams only the built-in %q workload", fsml.StreamDemoProgram)
	}

	// ^C cancels the session context; the engine still closes the stream
	// with a truncated done event, which prints below like any other.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	print := func(ev fsml.StreamEvent) error { return printWatchEvent(os.Stdout, ev, *asJSON) }

	if *server != "" {
		if *model != "" || *quick {
			return fmt.Errorf("-model/-quick configure a local session; use -detector with -server")
		}
		c := fsml.NewServeClient(*server)
		c.Retry = fsml.ServeRetryPolicy{Max: *retries}
		_, err := c.Watch(ctx, fsml.WatchQuery{
			Spec:        *window,
			Detector:    *detector,
			Seed:        *seed,
			Threads:     *threads,
			Iters:       *iters,
			SliceRounds: *sliceRounds,
			NoDrift:     !*drift,
		}, print)
		if err != nil && ctx.Err() != nil {
			// The server noticed the hangup; the truncated summary may not
			// have made it back, so say why the feed stopped.
			fmt.Fprintln(os.Stderr, "fsml: watch interrupted")
			return nil
		}
		return err
	}
	if *detector != "" {
		return fmt.Errorf("-detector selects a server-side model; use -model locally")
	}

	spec, err := fsml.ParseWindowSpec(*window)
	if err != nil {
		return err
	}
	det, err := loadOrTrain(*model, *quick, *jobs)
	if err != nil {
		return err
	}
	var env *fsml.StreamEnvelope
	if *drift {
		env = fsml.StreamEnvelopeFromTree(det.Tree, 0)
	}
	col := fsml.NewCollector()
	col.Parallelism = *jobs
	var printErr error
	mon, err := fsml.NewStreamMonitor(col, det, fsml.StreamMonitorConfig{
		Spec:        spec,
		SliceRounds: *sliceRounds,
		Seed:        *seed,
		Envelope:    env,
		OnEvent: func(ev fsml.StreamEvent) {
			if printErr == nil {
				printErr = print(ev)
			}
		},
	})
	if err != nil {
		return err
	}
	if _, err := mon.Run(ctx, fsml.PhasedKernels(*threads, *iters)); err != nil {
		return err
	}
	return printErr
}

// cmdLifecycle inspects a running server's model lifecycle: the state
// machine and active pointer ("status", the default), or the per-run
// retrain/shadow/promote ledger ("history").
func cmdLifecycle(args []string) error {
	fs := flag.NewFlagSet("lifecycle", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8723", "running `fsml serve` base URL")
	limit := fs.Int("limit", 16, "history runs to fetch, newest first (-1 = all)")
	retries := fs.Int("retries", 4, "client dial retries when the server sheds or is briefly unavailable")
	asJSON := fs.Bool("json", false, "emit the raw /v1/lifecycle JSON")
	fs.Parse(args)
	mode := "status"
	if fs.NArg() > 0 {
		mode = fs.Arg(0)
	}
	if fs.NArg() > 1 || (mode != "status" && mode != "history") {
		return fmt.Errorf("lifecycle: want `status` or `history`, got %q", strings.Join(fs.Args(), " "))
	}

	c := fsml.NewServeClient(*server)
	c.Retry = fsml.ServeRetryPolicy{Max: *retries}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	resp, err := c.Lifecycle(ctx, *limit)
	if err != nil {
		return err
	}
	if *asJSON {
		blob, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", blob)
		return nil
	}
	if !resp.Enabled {
		if resp.Error != "" {
			return fmt.Errorf("lifecycle: disabled on this server (startup error: %s)", resp.Error)
		}
		fmt.Println("lifecycle: disabled on this server (start it with `fsml serve -lifecycle on`)")
		return nil
	}
	if mode == "history" {
		if len(resp.History) == 0 {
			fmt.Println("lifecycle: no runs yet (no drift episode has triggered a retrain)")
			return nil
		}
		for _, r := range resp.History {
			printLifecycleRun(os.Stdout, r)
		}
		return nil
	}
	st := resp.Status
	if st == nil {
		return fmt.Errorf("lifecycle: server sent no status")
	}
	fmt.Printf("detector %q: %s\n", st.Name, st.State)
	fmt.Printf("  spec     %s\n", st.Spec.String())
	if st.ActiveKey != "" {
		fmt.Printf("  active   %s (version %d)\n", st.ActiveKey, st.Version)
	}
	if st.PreviousKey != "" {
		fmt.Printf("  previous %s\n", st.PreviousKey)
	}
	fmt.Printf("  evidence %d drift signals in window; %d runs recorded\n", st.Evidence, st.Runs)
	if st.Run != nil {
		fmt.Printf("  open run #%d (%s): shadow %d/%d agree, %d candidate wins\n",
			st.Run.Seq, st.Run.Outcome, st.Run.ShadowAgree, st.Run.ShadowTotal, st.Run.CandidateWins)
	}
	if st.LastError != "" {
		fmt.Printf("  last error: %s\n", st.LastError)
	}
	for _, tr := range st.Transitions {
		fmt.Printf("  %s  %-11s -> %-11s %s\n", tr.At.Format(time.RFC3339), tr.From, tr.To, tr.Reason)
	}
	return nil
}

// printLifecycleRun renders one ledger entry of `fsml lifecycle history`.
func printLifecycleRun(w io.Writer, r fsml.LifecycleRun) {
	fmt.Fprintf(w, "run #%d  %-11s %s  (evidence %d, seed %d)\n",
		r.Seq, r.Outcome, r.Started.Format(time.RFC3339), r.Evidence, r.Seed)
	if r.CandidateKey != "" {
		fmt.Fprintf(w, "  candidate %s", r.CandidateKey)
		if r.TrainAccuracy > 0 {
			fmt.Fprintf(w, "  (cv accuracy %.3f)", r.TrainAccuracy)
		}
		fmt.Fprintln(w)
	}
	if r.ShadowTotal > 0 {
		fmt.Fprintf(w, "  shadow    %d scored: %d agree, %d disagree, %d candidate wins (agreement %.3f)\n",
			r.ShadowTotal, r.ShadowAgree, r.ShadowDisagree, r.CandidateWins, r.Agreement)
	}
	if r.Version > 0 {
		fmt.Fprintf(w, "  flip      -> version %d (previous %s); probation %d scored, %d disagree\n",
			r.Version, r.PreviousKey, r.ProbationTotal, r.ProbationDisagree)
	}
	if r.LatencyP50 > 0 {
		fmt.Fprintf(w, "  mirror    p50 %.1fus  p95 %.1fus  p99 %.1fus\n",
			r.LatencyP50*1e6, r.LatencyP95*1e6, r.LatencyP99*1e6)
	}
	if r.Error != "" {
		fmt.Fprintf(w, "  error     %s\n", r.Error)
	}
}

// printWatchEvent renders one stream event: raw JSON lines for tooling,
// or a readable one-line-per-event feed.
func printWatchEvent(w io.Writer, ev fsml.StreamEvent, asJSON bool) error {
	if asJSON {
		blob, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", blob)
		return err
	}
	switch ev.Kind {
	case fsml.StreamKindWindow:
		v := ev.Window
		class := v.Class
		if class == "" {
			class = "(idle)"
		}
		note := ""
		if v.Degraded {
			note = fmt.Sprintf("  [degraded %.2f: %s]", v.Confidence, strings.Join(v.Suspects, ","))
		}
		_, err := fmt.Fprintf(w, "window %3d  samples [%3d,%3d)  %-8s smoothed %-8s%s\n",
			v.Index, v.Start, v.End, class, v.Smoothed, note)
		return err
	case fsml.StreamKindPhase:
		p := ev.Phase
		from := p.From
		if from == "" {
			from = "(start)"
		}
		_, err := fmt.Fprintf(w, ">>> phase  %s -> %s  (confirmed at window %d, begins window %d / sample %d)\n",
			from, p.To, p.Window, p.Start, p.Sample)
		return err
	case fsml.StreamKindDrift:
		d := ev.Drift
		_, err := fmt.Fprintf(w, "!!! drift  window %d: %s outside the training envelope (score %.2f)\n",
			d.Window, strings.Join(d.Features, ", "), d.Score)
		return err
	case fsml.StreamKindDriftClear:
		c := ev.DriftClear
		_, err := fmt.Fprintf(w, "--- drift cleared  window %d: back inside the envelope (episode began window %d, %d alarmed windows)\n",
			c.Window, c.Since, c.Windows)
		return err
	case fsml.StreamKindDone:
		s := ev.Summary
		runs := make([]string, len(s.PhaseRuns))
		for i, r := range s.PhaseRuns {
			runs[i] = fmt.Sprintf("%s[%d-%d]", r.Class, r.Start, r.End)
		}
		trunc := ""
		if s.Truncated {
			trunc = " (truncated)"
		}
		_, err := fmt.Fprintf(w, "done%s: %d samples, %d windows (%d classified), %d phase changes, %d drift alarms (%d cleared)\n"+
			"final class %s; timeline %s; %.4f simulated s\n",
			trunc, s.Samples, s.Windows, s.Classified, s.Phases, s.DriftAlarms, s.DriftCleared,
			s.Final, strings.Join(runs, " -> "), s.Seconds)
		return err
	}
	return nil
}

func cmdList() error {
	fmt.Println("benchmark programs:")
	for _, w := range fsml.Workloads() {
		inputs := make([]string, len(w.Inputs))
		for i, in := range w.Inputs {
			inputs[i] = in.Name
		}
		fmt.Printf("  %-8s %-18s paper: %-7s inputs: %s\n", w.Suite, w.Name, w.PaperClass, strings.Join(inputs, ","))
	}
	for name, why := range fsml.UnsupportedWorkloads() {
		fmt.Printf("  %-8s %-18s (not modeled: %s)\n", "parsec", name, why)
	}
	for _, w := range fsml.PathologyWorkloads() {
		inputs := make([]string, len(w.Inputs))
		for i, in := range w.Inputs {
			inputs[i] = in.Name
		}
		fmt.Printf("  %-8s %-18s paper: %-7s inputs: %s   (classify -ensemble)\n", w.Suite, w.Name, w.PaperClass, strings.Join(inputs, ","))
	}
	fmt.Println("\nexperiments:")
	fmt.Printf("  %s\n", strings.Join(fsml.Experiments(), " "))
	return nil
}
