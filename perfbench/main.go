// Command perfbench is the repository benchmark. It drives the fsml
// library from outside, through each layer's public functions, on one
// of three workloads and prints one JSON result line:
//
//	perfbench -workload train-quick|trace-replay|serve-mix -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the benchmark measures once untraced and
// once with spans recorded around every layer call, and reports the
// per-layer metrics, the tracing overhead and how much of the traced
// time the spans account for; the spans are written to -out.
//
// Build and run it through run.sh; README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics and their units, in the order
// BENCHMARK.json declares them. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"classify_p50_ms", "ms"},
	{"max_rate_rps", "1/s"},
}

// perLayer lists the per-layer metrics and their units. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"sched.busy_frac", "fraction"},
	{"machine.new_ms", "ms"},
	{"machine.new_alloc_mb", "MB"},
	{"machine.run_ns_per_instr", "ns"},
	{"machine.run_allocs_per_kinstr", "count"},
	{"miniprog.build_us", "us"},
	{"pmu.read_us", "us"},
	{"core.filter_ms", "ms"},
	{"ml.grow_ms", "ms"},
	{"ml.cv_ms", "ms"},
	{"trace.parse_mb_per_s", "MB/s"},
	{"trace.parse_alloc_mb", "MB"},
	{"core.classify_us", "us"},
	{"serve.vector_p50_ms", "ms"},
	{"serve.bin64_p50_ms", "ms"},
	{"serve.perf_p50_ms", "ms"},
	{"serve.ensemble_p50_ms", "ms"},
	{"serve.classify_p99_ms", "ms"},
	{"serve.trace_p50_ms", "ms"},
	{"serve.handler_p50_us", "us"},
	{"http.transport_p50_us", "us"},
	{"serve.batch_queue_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed_frac", "fraction"},
	{"fleet.hop_p50_us", "us"},
	{"registry.cold_train_s", "s"},
	{"registry.cold_ensemble_s", "s"},
	{"perfingest.parse_us", "us"},
	{"core.classify_robust_ns", "ns"},
	{"ensemble.classify_us", "us"},
	{"ml.batch_ns_per_vec", "ns"},
	{"serve.bin_codec_us", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"rss.max_mb", "MB"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"trace.accounted_frac", "fraction"},
	{"sim.instructions", "count"},
	{"sim.cycles_per_instr", "count"},
	{"cache.l1_miss_pki", "count"},
	{"cache.hitm_pki", "count"},
	{"cache.l3_miss_pki", "count"},
	{"tlb.miss_pki", "count"},
	{"lfb.hit_pki", "count"},
}

type metricDef struct{ name, unit string }

// accountedTolerance is how much of a traced unit's wall time its
// top-level layer spans must cover. The rest is benchmark glue between
// calls; a gap larger than this means a layer call is missing a span.
// It checks the spans' coverage of the traced copy only, not that the
// copy matches the program: overheadTolerance does that.
const accountedTolerance = 0.95

// overheadTolerance bounds how far the traced layer-by-layer copy of a
// pipeline may run from the program's own untraced call, the two timed
// alternately in the same run so host drift cancels. Beyond it the copy
// no longer does the work the program does, or tracing distorts it,
// and its per-layer figures do not describe the end-to-end ones.
const overheadTolerance = 0.25

// bench carries one run's settings and results.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	workers  int // nproc: the training collection parallelism
	speed    *hostSpeed

	attempted, failed int
	e2e, layer        map[string]float64
	// hostTimes and hostRates are end-to-end metrics measured in host
	// time. When the run ends they go into e2e in reference time: a
	// time multiplied by the run's speed factor, a rate divided by it.
	hostTimes, hostRates map[string]float64
	spans                []span
}

// check counts a failed output check against the current operation and
// reports it on stderr. It returns ok so callers can count each
// operation at most once.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// op records one attempted operation and whether all its checks passed.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// units prints one per-unit series to stderr, for reading a run's
// spread by eye.
func (b *bench) units(name string, xs []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s per unit:", name)
	for _, x := range xs {
		fmt.Fprintf(os.Stderr, " %.4g", x)
	}
	fmt.Fprintln(os.Stderr)
}

// runFor repeats unit until the run's time is spent, at least min times.
func (b *bench) runFor(budget time.Duration, min int, unit func(i int) error) error {
	t0 := time.Now()
	for i := 0; i < min || time.Since(t0) < budget; i++ {
		if err := unit(i); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) budget(frac float64) time.Duration {
	return time.Duration(frac * b.seconds * float64(time.Second))
}

// overhead records the tracing overhead: the traced run's value of the
// workload's primary end-to-end metric relative to the untraced one.
func (b *bench) overhead(untraced, traced float64) {
	b.layer["trace.overhead_frac"] = traced/untraced - 1
}

// matchesProgram records the overhead of a traced copy of the program's
// pipeline over the program's own call and checks it is within
// overheadTolerance either way.
func (b *bench) matchesProgram(untraced, traced float64, call string) bool {
	b.overhead(untraced, traced)
	frac := b.layer["trace.overhead_frac"]
	return b.check(math.Abs(frac) <= overheadTolerance, "traced copy took %.3f s, untraced %s %.3f s: %+.3f, want within ±%.2f",
		traced, call, untraced, frac, overheadTolerance)
}

// accounted records how much of the given unit spans' wall time their
// child spans cover, and checks it against accountedTolerance.
func (b *bench) accounted(spans []span, unitName string) bool {
	self := selfTimes(spans)
	var total, uncovered time.Duration
	for _, s := range spans {
		if s.Name == unitName {
			total += s.dur()
			uncovered += self[s.ID]
		}
	}
	if total == 0 {
		return b.check(false, "no %s spans recorded", unitName)
	}
	frac := 1 - float64(uncovered)/float64(total)
	b.layer["trace.accounted_frac"] = frac
	return b.check(frac >= accountedTolerance, "%s spans account for %.3f of traced time, want >= %.2f", unitName, frac, accountedTolerance)
}

func main() {
	var (
		workload = flag.String("workload", "", "train-quick, trace-replay or serve-mix")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for span dumps")
	)
	flag.Parse()
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1, out: *out,
		workers: runtime.NumCPU(), e2e: map[string]float64{}, layer: map[string]float64{},
		hostTimes: map[string]float64{}, hostRates: map[string]float64{}}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(b *bench) error {
	if b.seed == 0 {
		return fmt.Errorf("-seed must be positive")
	}
	if b.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	// The benchmark reads repository inputs (the golden detector, perf
	// captures) relative to the checkout root.
	if _, err := os.Stat(filepath.Join("testdata", "quick_detector.golden.json")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var err error
	switch b.workload {
	case "train-quick":
		err = trainQuick(b)
	case "trace-replay":
		err = traceReplay(b)
	case "serve-mix":
		err = serveMix(b)
	default:
		return fmt.Errorf("unknown -workload %q", b.workload)
	}
	if err != nil {
		return err
	}
	k := b.speed.factor()
	for name, v := range b.hostTimes {
		b.e2e[name] = v * k
	}
	for name, v := range b.hostRates {
		b.e2e[name] = v / k
	}
	b.layer["host.ref_ms"] = b.speed.refMS()
	b.units("host probe ms", scaled(b.speed.probes, 1000))
	if b.trace {
		if err := writeSpans(b); err != nil {
			return err
		}
	}
	return report(b)
}

func writeSpans(b *bench) error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	t := &tracer{spans: b.spans}
	if err := t.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.spans), path)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the result line. Every end-to-end metric must have been
// measured and be positive; a missing per-layer value is a layer the
// workload does not reach and reads 0.
func report(b *bench) error {
	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, b.e2e
	if b.trace {
		defs, vals = perLayer, b.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !b.trace && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			return fmt.Errorf("end-to-end metric %s not measured (got %v)", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !hasMetric(defs, name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	printSummary(defs, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// printSummary writes a readable table to stderr.
func printSummary(defs []metricDef, ms map[string]metricValue) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// rssWindow is the span over which one resident-set peak is taken.
const rssWindow = 250 * time.Millisecond

// rssSampler samples the resident set size of a measured phase every
// few milliseconds and keeps its peak in each rssWindow. The phase's
// figure is the median of those peaks: the high-water mark the program
// holds while it works. The single highest sample is an extreme value of
// when garbage collections happen to land, and varied twice as much
// between runs of serve-mix.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64 // MB, one per window
	err        error
}

// startRSS releases what set-up left behind, so its transient memory is
// not counted, and starts sampling.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		start, peak := time.Now(), 0.0
		for {
			peak = math.Max(peak, r.sample())
			select {
			case <-r.stop:
				r.peaks = append(r.peaks, peak)
				return
			case now := <-tick.C:
				if now.Sub(start) >= rssWindow {
					r.peaks = append(r.peaks, peak)
					start, peak = now, 0
				}
			}
		}
	}()
	return r
}

// sample reads the resident set size in MB (0 after a failed read,
// which finish reports).
func (r *rssSampler) sample() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	var pages float64
	if err == nil {
		fields := strings.Fields(string(blob))
		if len(fields) < 2 {
			err = fmt.Errorf("short /proc/self/statm %q", blob)
		} else {
			pages, err = strconv.ParseFloat(fields[1], 64)
		}
	}
	if err != nil {
		r.err = fmt.Errorf("reading resident set size: %w", err)
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// finish stops sampling and returns the median window peak and the
// single highest sample, in MB.
func (r *rssSampler) finish() (med, max float64, err error) {
	close(r.stop)
	<-r.done
	for _, p := range r.peaks {
		max = math.Max(max, p)
	}
	return median(r.peaks), max, r.err
}

// recordRSS stops the sampler and records peak_rss_mb and rss.max_mb.
func (b *bench) recordRSS(r *rssSampler) error {
	var err error
	b.e2e["peak_rss_mb"], b.layer["rss.max_mb"], err = r.finish()
	return err
}

// allocMB returns the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}
