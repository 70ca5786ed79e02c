package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// A 100ns parent with two workers' children overlapping on [20,60)
	// and a third child running past the parent's end.
	spans := []span{
		{ID: 1, Name: "collect", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "cell", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 130},
		{ID: 5, Parent: 2, Name: "run", Start: 15, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60ns.
	if got := self[1]; got != 40 {
		t.Errorf("parent self time = %v, want 40ns", got)
	}
	if got := self[2]; got != 10 {
		t.Errorf("cell self time = %v, want 10ns", got)
	}
	if got := self[4]; got != 40 {
		t.Errorf("childless span self time = %v, want its duration 40ns", got)
	}
	byName := selfByName(spans)
	if got := byName["cell"]; got != 10+40+40 {
		t.Errorf("cell self total = %v, want 90ns", got)
	}
}

func TestSelfTimeNestedChildrenNeverNegative(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "b", Start: 0, End: 10},
		{ID: 4, Parent: 1, Name: "c", Start: 2, End: 8},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Errorf("fully covered parent self time = %v, want 0", got)
	}
}

func TestLinkByRequest(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Req: "r1", Start: 0, End: 100},
		{ID: 2, Name: "coordinator", Req: "r1", Start: 10, End: 90},
		{ID: 3, Name: "backend", Req: "r1", Start: 20, End: 80},
		{ID: 4, Name: "backend", Req: "r2", Start: 20, End: 80},
	}
	linkByRequest(spans)
	if spans[1].Parent != 1 || spans[2].Parent != 2 {
		t.Errorf("parents = %d, %d; want 1, 2", spans[1].Parent, spans[2].Parent)
	}
	if spans[3].Parent != 0 {
		t.Errorf("a lone request's span got parent %d", spans[3].Parent)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: p99 is the 990th value, with exactly ten beyond.
	if v, q := tail(xs[:1000], 0.99); v != 990 || q != 0.99 {
		t.Errorf("tail of 1000 = %v at q=%v, want 990 at 0.99", v, q)
	}
	for _, n := range []int{30, 200, 999, 5000} {
		v, q := tail(xs[:n], 0.99)
		beyond := 0
		for _, x := range xs[:n] {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported p%.1f, want >= %d", n, beyond, q*100, minBeyond)
		}
		if n >= 1100 && q != 0.99 {
			t.Errorf("n=%d: reported q=%v, want the full 0.99", n, q)
		}
	}
	// Too few samples for any tail: the median is reported.
	if v, q := tail(xs[:15], 0.99); v != 8 || q != 0.5 {
		t.Errorf("tail of 15 = %v at q=%v, want the median 8 at 0.5", v, q)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent 30ms late behind a stall, answered 5ms after sending: the
	// request waited 35ms.
	lat, lag := openLoopTimes(due, due.Add(30*time.Millisecond), due.Add(35*time.Millisecond))
	if lat != 35*time.Millisecond || lag != 30*time.Millisecond {
		t.Errorf("latency, lag = %v, %v; want 35ms, 30ms", lat, lag)
	}
	// Sent early (never happens with sleeps, but clocks jitter): no
	// negative lag, latency still from due.
	lat, lag = openLoopTimes(due, due.Add(-time.Millisecond), due.Add(4*time.Millisecond))
	if lat != 4*time.Millisecond || lag != 0 {
		t.Errorf("latency, lag = %v, %v; want 4ms, 0", lat, lag)
	}
}

func TestStepPasses(t *testing.T) {
	const limit = 50.0
	cases := []struct {
		step loadStep
		want bool
	}{
		{loadStep{Rate: 100, Achieved: 99, Tail: 10}, true},
		{loadStep{Rate: 100, Achieved: 99, Tail: 50}, true},
		{loadStep{Rate: 100, Achieved: 99, Tail: 51}, false},
		{loadStep{Rate: 100, Achieved: 80, Tail: 10, Backlog: true}, false},
		{loadStep{Rate: 100, Achieved: 99, Tail: math.Inf(1)}, false},
	}
	for _, c := range cases {
		if got := c.step.passes(limit); got != c.want {
			t.Errorf("%+v passes = %v, want %v", c.step, got, c.want)
		}
	}
}

// capacity is a fake system that sustains every rate up to max.
func capacity(max float64, probed *[]float64) func(float64) loadStep {
	return func(rate float64) loadStep {
		*probed = append(*probed, rate)
		if rate <= max {
			return loadStep{Rate: rate, Achieved: rate, Tail: 10}
		}
		return loadStep{Rate: rate, Achieved: max, Tail: 500, Backlog: true}
	}
}

func TestSearchRate(t *testing.T) {
	const limit = 50.0
	for _, c := range []struct {
		name       string
		start, max float64
	}{
		{"capacity above start", 100, 1000},
		{"capacity below start", 100, 20},
		{"capacity exactly at a probe", 100, 225},
	} {
		var probed []float64
		got, steps := searchRate(c.start, 1.5, 10, limit, capacity(c.max, &probed))
		fails := 0
		for _, s := range steps {
			if !s.passes(limit) {
				fails++
			}
		}
		if len(steps) != 10+fails/2 || len(probed) != len(steps) || fails%2 != 0 {
			t.Errorf("%s: %d steps, %d failed, %d probed; want 10 probes with every failure run twice", c.name, len(steps), fails, len(probed))
		}
		if got > c.max || got < c.max/1.05 {
			t.Errorf("%s: searchRate = %v, want within 5%% below %v (probed %v)", c.name, got, c.max, probed)
		}
	}
	// One failure by chance is run again and forgotten.
	var probed []float64
	fake := capacity(1000, &probed)
	noisy := func(failures int) func(float64) loadStep {
		return func(rate float64) loadStep {
			if n := len(probed); n >= 2 && n < 2+failures { // the third probe, 225/s, fails by chance
				probed = append(probed, rate)
				return loadStep{Rate: rate, Achieved: rate, Tail: 90}
			}
			return fake(rate)
		}
	}
	if got, _ := searchRate(100, 1.5, 10, limit, noisy(1)); got > 1000 || got < 1000/1.06 {
		t.Errorf("searchRate after one noisy failure = %v, want within 6%% below 1000", got)
	}
	// Two in a row narrow the bracket: no later probe goes above it.
	probed = nil
	got, _ := searchRate(100, 1.5, 8, limit, noisy(2))
	for _, r := range probed[4:] {
		if r >= probed[2] {
			t.Errorf("probe %v above the failed %v", r, probed[2])
		}
	}
	if got < 150 || got >= 225 {
		t.Errorf("searchRate after a repeated noisy failure at 225 = %v, want in [150, 225)", got)
	}
	// The served rate of a passing step, not its offered rate, counts.
	got, _ = searchRate(100, 2, 1, limit, func(rate float64) loadStep {
		return loadStep{Rate: rate, Achieved: 0.95 * rate, Tail: 10}
	})
	if got != 95 {
		t.Errorf("searchRate of one step served at 95/s = %v, want 95", got)
	}
	// Nothing passes: 0.
	if got, _ := searchRate(100, 1.5, 4, limit, capacity(0, &probed)); got != 0 {
		t.Errorf("searchRate with no passing step = %v, want 0", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and the
// benchmark definition at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
