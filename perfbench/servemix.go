package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/fleet"
	"fsml/internal/machine"
	"fsml/internal/perfingest"
	"fsml/internal/pmu"
	"fsml/internal/serve"
	"fsml/internal/suite"
	"fsml/internal/trace"
)

// Load shape of serve-mix. The nominal rate is where the classify
// latencies are read; the rate search above it finds max_rate_rps.
// There is no record of real traffic to base these on: the mix gives
// every cheap request kind an equal share, both routes carry equal
// load, and the nominal rate is a round figure well below the rate the
// server sustains on the reference host (README.md).
const (
	nominalRPS = 500.0
	// latencyLimit is on the tail of cheap requests. It lies above the
	// server's shipped 100 ms shed deadline, so a step fails when the
	// server sheds more than 1% of it or falls behind, not when one trace
	// upload or host stall holds up a few hundred requests.
	latencyLimit = 250.0 // ms
	// backlogServed is the share of its offered rate below which a step
	// counts as backlogged: the queue grew because the requests could not
	// be served as fast as they came.
	backlogServed = 0.9
	// searchGrow and searchProbes shape the rate search: the rate
	// doubles per step until a step fails, and the remaining steps halve
	// the bracket, to within 2-5% on the reference host.
	searchGrow   = 2
	searchProbes = 9
	fleetShare   = 2 // every 2nd request goes through the coordinator
	// maxInflight caps the open loop's outstanding requests, below the
	// 250 concurrent streams a Go HTTP/2 server allows per connection; a
	// send held back by the cap is late and its lateness counts.
	maxInflight = 250
	// burstInflight is the closed-loop concurrency: two of the server's
	// shipped 16-request batches.
	burstInflight = 32
	burstSize     = 5000 // requests per closed-loop burst
	binVectors    = 64   // vectors per FSB1 frame
)

type reqKind int

const (
	kindVector reqKind = iota
	kindBin
	kindPerf
	kindEnsemble
	kindTrace
)

var kindNames = []string{"vector", "bin64", "perf", "ensemble", "trace"}

// kindWeights is the request mix, per block of 400: the four cheap
// kinds in equal shares, and heavy trace uploads making up 1%.
var kindWeights = []int{99, 99, 99, 99, 4}

// want is an expected verdict.
type want struct {
	class      string
	confidence float64
	degraded   bool
}

func wantOf(rr core.RobustResult) want { return want{rr.Class, rr.Confidence, rr.Degraded} }

// serveInputs is what serve-mix generates from its seed, with the
// in-process verdict every response must equal.
type serveInputs struct {
	names, ensNames []string
	vectors         [][]float64 // in names order
	ensVectors      [][]float64 // in ensNames order
	wantVec         []want
	wantEns         []want
	frame           serve.BinClassifyRequest
	frameWant       []want
	perf            [][]byte
	wantPerf        []want
	trace           []byte
	wantTrace       want
	sim             simCounts
}

// serveSetup is one started server with a coordinator in front.
type serveSetup struct {
	srv        *serve.Server
	coord      *fleet.Coordinator
	https      []*http.Server
	served     sync.WaitGroup
	directURL  string
	fleetURL   string
	coldTrain  float64
	coldEns    float64
	setupTotal float64
	// tr is the tracer the handler wrappers record into; nil while the
	// untraced load runs.
	tr atomic.Pointer[tracer]
}

// idKey carries a request ID through a context to the transport.
type idKey struct{}

// loadTransport is the load generator's HTTP client transport: HTTP/2
// without TLS (h2c) over one connection per server address, so many
// requests are in flight on few connections. It stamps each request
// with the ID in its context, so the spans of one request's hops can be
// joined, and counts dials and any response that did not come over
// HTTP/2.
type loadTransport struct {
	base         *http.Transport
	dials, http1 atomic.Int64
}

func newLoadTransport() *loadTransport {
	t := &loadTransport{}
	var d net.Dialer
	t.base = &http.Transport{
		MaxConnsPerHost: 1,
		Protocols:       new(http.Protocols),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			t.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	t.base.Protocols.SetUnencryptedHTTP2(true)
	return t
}

func (t *loadTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(idKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(serve.RequestIDHeader, id)
	}
	resp, err := t.base.RoundTrip(r)
	if err == nil && resp.ProtoMajor != 2 {
		t.http1.Add(1)
	}
	return resp, err
}

// timed wraps a handler in a span named after the layer it enters,
// recorded while the setup's tracer is set.
func (st *serveSetup) timed(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := st.tr.Load()
		id := t.start(name, 0, r.Header.Get(serve.RequestIDHeader))
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

func (st *serveSetup) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	// HTTP/1 for the coordinator's shipped client, h2c for the load.
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, Protocols: new(http.Protocols)}
	hs.Protocols.SetHTTP1(true)
	hs.Protocols.SetUnencryptedHTTP2(true)
	st.https = append(st.https, hs)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// Cold requests carry all-zero vectors, so set-up needs no generated
// input: the request inputs are measured after the first set-up, with
// the trained detector, and stay out of set-up time.
var (
	coldNames    = pmu.FeatureNames()
	coldEnsNames = append(pmu.FeatureNames(), "MEM_UNCORE_RETIRED.REMOTE_DRAM")
)

// startServe starts a server with its shipped defaults and a fleet
// coordinator in front of it, then pays the registry's cold start: the
// default detector and the default ensemble are trained by the first
// requests that need them.
func startServe(hc *http.Client) (*serveSetup, error) {
	st := &serveSetup{}
	t0 := time.Now()
	st.srv = serve.New(serve.Config{})
	var err error
	if st.directURL, err = st.listen(st.timed("serve.Server.Handler", st.srv.Handler())); err != nil {
		return nil, err
	}
	if st.coord, err = fleet.New(fleet.Config{Peers: []string{st.directURL}}); err != nil {
		st.stop()
		return nil, err
	}
	if st.fleetURL, err = st.listen(st.timed("fleet.Coordinator.Handler", st.coord.Handler())); err != nil {
		st.stop()
		return nil, err
	}
	st.coord.StartLoops()
	c := &serve.Client{BaseURL: st.directURL, HTTPClient: hc}
	ctx := context.Background()
	t1 := time.Now()
	if _, err := c.Classify(ctx, serve.ClassifyRequest{Events: coldNames, Vector: make([]float64, len(coldNames))}); err != nil {
		st.stop()
		return nil, fmt.Errorf("cold classify: %w", err)
	}
	t2 := time.Now()
	if _, err := c.ClassifyEnsemble(ctx, serve.ClassifyRequest{Events: coldEnsNames, Vector: make([]float64, len(coldEnsNames))}); err != nil {
		st.stop()
		return nil, fmt.Errorf("cold ensemble classify: %w", err)
	}
	t3 := time.Now()
	st.coldTrain, st.coldEns, st.setupTotal = t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t3.Sub(t0).Seconds()
	return st, nil
}

// stop shuts everything down and waits for every goroutine it started.
func (st *serveSetup) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.coord != nil {
		_ = st.coord.Shutdown(ctx)
	}
	for i := len(st.https) - 1; i >= 0; i-- {
		_ = st.https[i].Shutdown(ctx)
	}
	_ = st.srv.Shutdown(ctx)
	st.served.Wait()
}

// serveInputsFor measures the request inputs from seeded suite cases and
// computes every expected verdict in process.
func serveInputsFor(seed uint64, det *core.Detector, ens *ensemble.Detector) (*serveInputs, error) {
	in := &serveInputs{names: det.Tree.Attrs, ensNames: ens.Attrs}
	col := core.NewCollector()
	col.Events = pmu.EnsembleEvents()
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var samples []pmu.Sample
	for i, name := range []string{"linear_regression", "histogram", "streamcluster", "blackscholes",
		"kmeans", "word_count", "string_match", "swaptions", "canneal", "fluidanimate"} {
		w, ok := suite.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("suite workload %s missing", name)
		}
		cs := suite.Case{Input: w.Inputs[0].Name, Threads: 2 + rng.IntN(7), Opt: machine.OptLevel(rng.IntN(4)), Seed: seed*100 + uint64(i)}
		samples = append(samples, col.Measure(name, cs.Seed, w.Build(cs)).Sample)
	}
	for _, s := range samples {
		v, err := s.Project(in.names)
		if err != nil {
			return nil, err
		}
		rr, err := det.ClassifyRobust(pmu.Sample{Names: in.names, Counts: v, Instructions: 1})
		if err != nil {
			return nil, err
		}
		in.vectors, in.wantVec = append(in.vectors, v), append(in.wantVec, wantOf(rr))
		ev, err := s.Project(in.ensNames)
		if err != nil {
			return nil, err
		}
		er, err := ens.ClassifyRobust(pmu.Sample{Names: in.ensNames, Counts: ev, Instructions: 1})
		if err != nil {
			return nil, err
		}
		in.ensVectors = append(in.ensVectors, ev)
		in.wantEns = append(in.wantEns, want{er.Class, er.Confidence, er.Degraded})
	}
	in.frame = serve.BinClassifyRequest{Events: in.names, Width: len(in.names)}
	for i := 0; i < binVectors; i++ {
		j := rng.IntN(len(in.vectors))
		in.frame.Vecs = append(in.frame.Vecs, in.vectors[j]...)
		in.frameWant = append(in.frameWant, in.wantVec[j])
	}

	dir := filepath.Join("internal", "perfingest", "testdata")
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no perf captures under %s", dir)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep, err := perfingest.Parse(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		s, _, err := rep.Sample()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		rr, err := det.ClassifyRobust(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		in.perf, in.wantPerf = append(in.perf, data), append(in.wantPerf, wantOf(rr))
	}

	// The trace upload: a small gzip-compressed trace, tens of ms to
	// replay, classified the way the server does it.
	w, _ := suite.Lookup("ferret")
	cs := suite.Case{Input: "simsmall", Threads: 4, Opt: machine.O0, Seed: seed}
	tr, _ := trace.Record(machine.DefaultConfig(), w.Build(cs))
	var text, gz bytes.Buffer
	if err := trace.Write(&text, tr); err != nil {
		return nil, err
	}
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(text.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	in.trace = gz.Bytes()
	s, _ := measure(nil, 0, &in.sim, "serve/trace/seed=1", 1, tr.Kernels())
	rr, err := det.ClassifyRobust(s)
	if err != nil {
		return nil, err
	}
	in.wantTrace = wantOf(rr)
	return in, nil
}

// planned is one request of the open-loop schedule.
type planned struct {
	kind  reqKind
	item  int // which input of its kind
	fleet bool
	due   time.Duration // offset from the step start
}

// outcome is one sent request.
type outcome struct {
	planned
	id           string
	latency, lag time.Duration // from due time; how late it was sent
	sent, done   time.Time
	err          error
	correct      bool
}

func (o outcome) rt() time.Duration { return o.done.Sub(o.sent) }

// latencyMS is the latency from due time, with a failed or wrong
// response counted as beyond any limit.
func (o outcome) latencyMS() float64 {
	if o.err != nil || !o.correct {
		return math.Inf(1)
	}
	return ms(o.latency)
}

// loadgen sends the mix.
type loadgen struct {
	b              *bench
	in             *serveInputs
	direct, routed *serve.Client
	rng            *rand.Rand
	next           int // request ID counter
	shed           int // requests shed in rate-search steps
}

// block returns one block of the mix: every kind its weight's number of
// times.
func block(allowTrace bool) []reqKind {
	var block []reqKind
	for k, w := range kindWeights {
		if reqKind(k) == kindTrace && !allowTrace {
			w = 0
		}
		for i := 0; i < w; i++ {
			block = append(block, reqKind(k))
		}
	}
	return block
}

// kinds returns n request kinds in the mix's proportions, as blocks in
// seeded order.
func (l *loadgen) kinds(n int, allowTrace bool) []reqKind {
	block := block(allowTrace)
	out := make([]reqKind, 0, n+len(block))
	for len(out) < n {
		l.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

func (l *loadgen) items(k reqKind) int {
	switch k {
	case kindVector, kindEnsemble:
		return len(l.in.vectors)
	case kindPerf:
		return len(l.in.perf)
	default:
		return 1
	}
}

// schedule plans d's worth of arrivals at rate, cut to whole blocks of
// the mix so every run sends the same share of heavy trace uploads:
// evenly spaced, each moved by up to a quarter of the gap either way.
func (l *loadgen) schedule(rate float64, d time.Duration, allowTrace bool) []planned {
	n := int(rate * d.Seconds())
	if b := len(block(allowTrace)); n > b {
		n -= n % b
	}
	gap := time.Duration(float64(time.Second) / rate)
	var out []planned
	for i, k := range l.kinds(n, allowTrace) {
		jitter := time.Duration((l.rng.Float64() - 0.5) * 0.5 * float64(gap))
		out = append(out, planned{kind: k, item: l.rng.IntN(l.items(k)), fleet: i%fleetShare == fleetShare-1,
			due: time.Duration(i)*gap + gap/2 + jitter})
	}
	return out
}

// send performs one request and checks its response.
func (l *loadgen) send(ctx context.Context, p planned) (bool, error) {
	c := l.direct
	if p.fleet {
		c = l.routed
	}
	in := l.in
	match := func(r *serve.ClassifyResponse, w want) bool {
		return r.Class == w.class && r.Confidence == w.confidence && r.Degraded == w.degraded
	}
	switch p.kind {
	case kindVector:
		r, err := c.Classify(ctx, serve.ClassifyRequest{Events: in.names, Vector: in.vectors[p.item]})
		if err != nil {
			return false, err
		}
		return match(r, in.wantVec[p.item]), nil
	case kindEnsemble:
		r, err := c.ClassifyEnsemble(ctx, serve.ClassifyRequest{Events: in.ensNames, Vector: in.ensVectors[p.item]})
		if err != nil {
			return false, err
		}
		return match(r, in.wantEns[p.item]), nil
	case kindPerf:
		r, err := c.ClassifyPerf(ctx, "", in.perf[p.item])
		if err != nil {
			return false, err
		}
		return match(r, in.wantPerf[p.item]), nil
	case kindTrace:
		r, err := c.Classify(ctx, serve.ClassifyRequest{Trace: in.trace, Seed: 1})
		if err != nil {
			return false, err
		}
		return match(r, in.wantTrace), nil
	default:
		r, err := c.ClassifyBinary(ctx, &in.frame)
		if err != nil {
			return false, err
		}
		if len(r.Verdicts) != binVectors {
			return false, nil
		}
		for i, v := range r.Verdicts {
			w := in.frameWant[i]
			if v.Class != w.class || v.Confidence != w.confidence || v.Degraded != w.degraded {
				return false, nil
			}
		}
		return true, nil
	}
}

// open sends the planned requests open loop: each is sent at its due
// offset from now whether or not earlier ones have finished, up to
// maxInflight at once. A send held back by that cap is late, and the
// lateness counts in its latency.
func (l *loadgen) open(reqs []planned, probe bool) []outcome {
	out := make([]outcome, len(reqs))
	slots := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range reqs {
		due := start.Add(p.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = l.do(i, p, due)
			<-slots
		}()
	}
	wg.Wait()
	return l.tally(out, probe)
}

// closed sends the requests back to back from n concurrent senders.
func (l *loadgen) closed(reqs []planned, n int) []outcome {
	out := make([]outcome, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = l.do(i, reqs[i], time.Now())
			}
		}()
	}
	for i := range reqs {
		work <- i
	}
	close(work)
	wg.Wait()
	return l.tally(out, false)
}

// do sends the i-th request of a batch, due at due, and times it.
func (l *loadgen) do(i int, p planned, due time.Time) outcome {
	o := outcome{planned: p, id: "req-" + strconv.Itoa(l.next+i)}
	o.sent = time.Now()
	o.correct, o.err = l.send(context.WithValue(context.Background(), idKey{}, o.id), p)
	o.done = time.Now()
	o.latency, o.lag = openLoopTimes(due, o.sent, o.done)
	return o
}

// tally counts the batch's operations. In a rate-search step (probe), a
// request the server shed under overload — its documented 429 or 503
// "not processed" answer — is not a failed operation: it counts against
// the step as a latency beyond any limit. Anywhere else it fails.
func (l *loadgen) tally(out []outcome, probe bool) []outcome {
	l.next += len(out)
	for _, o := range out {
		if probe && isShed(o.err) {
			l.shed++
			l.b.op(true)
			continue
		}
		ok := l.b.check(o.err == nil, "%s request %s failed: %v", kindNames[o.kind], o.id, o.err) &&
			l.b.check(o.correct, "%s request %s: response differs from the in-process verdict", kindNames[o.kind], o.id)
		l.b.op(ok)
	}
	return out
}

func isShed(err error) bool {
	var ae *serve.APIError
	return errors.As(err, &ae) && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable)
}

// stepOf summarizes one fixed-rate step that started at start.
func stepOf(rate float64, start time.Time, outs []outcome) loadStep {
	var lat []float64
	for _, o := range outs {
		if o.kind != kindTrace {
			lat = append(lat, o.latencyMS())
		}
	}
	st := loadStep{Rate: rate}
	st.Tail, _ = tail(lat, 0.99)
	last := start
	for _, o := range outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	st.Achieved = float64(len(outs)) / last.Sub(start).Seconds()
	st.Backlog = st.Achieved < backlogServed*rate
	return st
}

// serveMix is the serve-mix workload.
func serveMix(b *bench) error {
	lt := newLoadTransport()
	hc := &http.Client{Transport: lt}
	defer lt.base.CloseIdleConnections()
	b.speed = newHostSpeed(b.workers)

	// Set-up, repeated: a fresh server and coordinator each time, paying
	// the registry's cold training. The last one serves the load.
	reps := 3
	if b.trace {
		reps = 1
	}
	var totals, colds, coldEns []float64
	var live *serveSetup
	b.speed.probe()
	for i := 0; i < reps; i++ {
		if live != nil {
			live.stop()
		}
		st, err := startServe(hc)
		if err != nil {
			return err
		}
		live = st
		b.speed.probe()
		totals = append(totals, st.setupTotal)
		colds, coldEns = append(colds, st.coldTrain), append(coldEns, st.coldEns)
	}
	defer live.stop()
	b.hostTimes["setup_s"] = median(totals)
	b.layer["registry.cold_train_s"] = median(colds)
	b.layer["registry.cold_ensemble_s"] = median(coldEns)

	// The in-process references: the server's own default detector, and
	// the default ensemble trained on it the way the registry does.
	ctx := context.Background()
	det, _, err := live.srv.Registry().Get(ctx, serve.TrainSpec{Quick: true, Seed: 1}.Key())
	if err != nil {
		return err
	}
	ens, err := ensemble.TrainContext(ctx, ensemble.TrainConfig{Quick: true, Seed: 1}, det)
	if err != nil {
		return err
	}
	in, err := serveInputsFor(b.seed, det, ens)
	if err != nil {
		return err
	}

	untraced, err := serveLoad(b, live, lt, in, nil)
	if err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	t := newTracer()
	live.tr.Store(t)
	traced, err := serveLoad(b, live, lt, in, t)
	live.tr.Store(nil)
	if err != nil {
		return err
	}
	b.overhead(untraced, traced)
	in.sim.report(b.layer)
	return serveDirect(b, in, det, ens)
}

// serveLoad runs the warm-up, the nominal step, the rate search and
// the closed-loop bursts against one server, and records the metrics.
// It returns the nominal step's median cheap-request latency in ms.
func serveLoad(b *bench, st *serveSetup, lt *loadTransport, in *serveInputs, t *tracer) (float64, error) {
	hc := &http.Client{Transport: lt}
	l := &loadgen{b: b, in: in, rng: rand.New(rand.NewPCG(b.seed, 0x10ad)),
		direct: &serve.Client{BaseURL: st.directURL, HTTPClient: hc},
		routed: &serve.Client{BaseURL: st.fleetURL, HTTPClient: hc}}
	// Warm-up: every kind, both routes, untimed.
	var warm []planned
	for k := range kindNames {
		for i := 0; i < 4; i++ {
			warm = append(warm, planned{kind: reqKind(k), item: i % l.items(reqKind(k)), fleet: i%2 == 1})
		}
	}
	l.closed(warm, 2)
	m0 := st.srv.Metrics().Render()
	a0, dials0, http10 := l.next, lt.dials.Load(), lt.http1.Load()

	// peak_rss_mb is read at the nominal rate: in the rate search it
	// depends on how far past the server's limit the search happens to
	// probe. rss.max_mb covers the whole load.
	var rss, whole *rssSampler
	if t == nil {
		whole, rss = startRSS(), startRSS()
	}
	t0 := time.Now()
	nominal := l.open(l.schedule(nominalRPS, b.budget(0.2), true), false)
	if rss != nil {
		var err error
		if b.e2e["peak_rss_mb"], _, err = rss.finish(); err != nil {
			return 0, err
		}
	}
	steps := []loadStep{stepOf(nominalRPS, t0, nominal)}
	outs := append([]outcome(nil), nominal...)
	// The rate search and the bursts run untraced only: the traced pass
	// gives the span figures of the nominal step, and the batcher's
	// figures come from the untraced load.
	var maxRate float64
	var burstWall, burstAlloc []float64
	if t == nil {
		// After each step of the rate search, a closed-loop burst: spread
		// over the run, the bursts' median does not hang on one moment of
		// the host's speed.
		burst := func() {
			reqs := make([]planned, burstSize)
			for j, k := range l.kinds(burstSize, false) {
				reqs[j] = planned{kind: k, item: l.rng.IntN(l.items(k)), fleet: j%fleetShare == fleetShare-1}
			}
			a := allocMB()
			t0 := time.Now()
			l.closed(reqs, burstInflight)
			burstWall = append(burstWall, time.Since(t0).Seconds()*1000/burstSize)
			b.speed.between()
			burstAlloc = append(burstAlloc, (allocMB()-a)*1000/burstSize)
		}
		// The search runs in reference requests per second. Each step
		// offers the host the rate scaled by its speed so far, from the
		// probes of set-up and after the previous closed-loop bursts,
		// and its served rate is scaled back by the same factor, so a
		// step is judged at the speed it was offered at.
		var searchOuts []outcome
		var probes []loadStep
		maxRate, probes = searchRate(nominalRPS*searchGrow, searchGrow, searchProbes, latencyLimit, func(rate float64) loadStep {
			k := b.speed.factor()
			start := time.Now()
			o := l.open(l.schedule(rate*k, b.budget(0.06), false), true)
			searchOuts = append(searchOuts, o...)
			s := stepOf(rate*k, start, o)
			s.Rate, s.Achieved = rate, s.Achieved/k
			burst()
			return s
		})
		steps = append(steps, probes...)
		outs = append(outs, searchOuts...)
	}
	sent := l.next - a0
	m1 := st.srv.Metrics().Render()
	if whole != nil {
		var err error
		if _, b.layer["rss.max_mb"], err = whole.finish(); err != nil {
			return 0, err
		}
	}
	// The load's connections: one per server address, every response
	// over HTTP/2.
	dials, http1 := lt.dials.Load()-dials0, lt.http1.Load()-http10
	b.op(b.check(dials <= 2 && http1 == 0, "load used %d new connections and got %d HTTP/1 responses; want at most 2 and none", dials, http1))

	var cheap, traces []float64
	for _, o := range outs {
		if o.kind == kindTrace {
			traces = append(traces, o.latencyMS())
		}
	}
	for _, o := range nominal {
		if o.kind != kindTrace {
			cheap = append(cheap, o.latencyMS())
		}
	}
	if len(traces) == 0 {
		return 0, errors.New("no trace uploads were sent; lengthen -seconds")
	}
	b.e2e["classify_p50_ms"] = median(cheap)
	b.layer["serve.classify_p99_ms"], _ = tail(cheap, 0.99)
	b.layer["serve.trace_p50_ms"] = median(traces)
	if t == nil {
		b.e2e["max_rate_rps"] = maxRate
		b.units("wall_s host seconds", burstWall)
		b.hostTimes["wall_s"] = median(burstWall)
		b.e2e["alloc_mb"] = median(burstAlloc)
		b.layer["serve.batch_queue_ms"] = 1000 * histMean(m0, m1, "fsml_batch_queue_seconds")
		b.layer["serve.batch_size_mean"] = histMean(m0, m1, "fsml_batch_size")
		b.layer["serve.shed_frac"] = (metricValueOf(m1, "fsml_shed_classify_total") - metricValueOf(m0, "fsml_shed_classify_total")) / float64(sent)
	}
	for _, s := range steps {
		fmt.Fprintf(os.Stderr, "perfbench: step %.0f rps: served %.1f rps, tail %.3f ms, backlog %v, passes %v\n", s.Rate, s.Achieved, s.Tail, s.Backlog, s.passes(latencyLimit))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests shed in rate-search steps\n", l.shed)

	var lags []float64
	for _, o := range nominal {
		lags = append(lags, ms(o.lag))
	}
	b.layer["loadgen.lag_p99_ms"], _ = tail(lags, 0.99)
	for k, name := range kindNames[:kindTrace] {
		var rts []float64
		for _, o := range nominal {
			if o.kind == reqKind(k) && o.err == nil {
				rts = append(rts, ms(o.rt()))
			}
		}
		b.layer["serve."+name+"_p50_ms"] = median(rts)
	}
	if t != nil {
		layerSpans(b, t, nominal)
	}
	return median(cheap), nil
}

// layerSpans derives the HTTP-layer metrics from the traced nominal
// step: time inside the server handler, the transport's share of the
// round trip, and the coordinator hop.
func layerSpans(b *bench, t *tracer, nominal []outcome) {
	spans := t.snapshot()
	// Client spans are added after the fact from the outcomes, so every
	// request's hops hang under its client round trip.
	for _, o := range nominal {
		t.record("client."+kindNames[o.kind], o.id, o.sent, o.done)
	}
	spans = t.snapshot()
	linkByRequest(spans)
	b.spans = spans
	byReq := map[string][]span{}
	for _, s := range spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	var handler, transport, hop []float64
	for _, o := range nominal {
		if o.kind == kindTrace || o.err != nil {
			continue
		}
		var srv, coord *span
		for _, s := range byReq[o.id] {
			s := s
			switch s.Name {
			case "serve.Server.Handler":
				srv = &s
			case "fleet.Coordinator.Handler":
				coord = &s
			}
		}
		if srv == nil {
			continue
		}
		handler = append(handler, us(srv.dur()))
		if coord != nil {
			hop = append(hop, us(coord.dur()-srv.dur()))
		} else {
			transport = append(transport, us(o.rt()-srv.dur()))
		}
	}
	b.layer["serve.handler_p50_us"] = median(handler)
	b.layer["http.transport_p50_us"] = median(transport)
	b.layer["fleet.hop_p50_us"] = median(hop)
	// Every client round trip is covered by its server-side hops except
	// the transport; the accounted share is reported, not gated, since
	// the transport is a real layer of its own here.
	self := selfTimes(spans)
	var total, uncovered time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") {
			total += s.dur()
			uncovered += self[s.ID]
		}
	}
	if total > 0 {
		b.layer["trace.accounted_frac"] = 1 - float64(uncovered)/float64(total)
	}
}

// serveDirect times, in process, the layers under the serve path on the
// inputs the requests carry.
func serveDirect(b *bench, in *serveInputs, det *core.Detector, ens *ensemble.Detector) error {
	const reps = 200
	var perf []float64
	for r := 0; r < reps; r++ {
		for _, data := range in.perf {
			t0 := time.Now()
			rep, err := perfingest.Parse(bytes.NewReader(data))
			if err != nil {
				return err
			}
			if _, _, err := rep.Sample(); err != nil {
				return err
			}
			perf = append(perf, us(time.Since(t0)))
		}
	}
	b.layer["perfingest.parse_us"] = median(perf)

	var robust, ensLat, batch, codec []float64
	frame, err := serve.AppendBinRequest(nil, &in.frame)
	if err != nil {
		return err
	}
	classes := make([]string, binVectors)
	resp := &serve.BinClassifyResponse{Verdicts: make([]serve.BinVerdict, binVectors)}
	for i, w := range in.frameWant {
		resp.Verdicts[i] = serve.BinVerdict{Class: w.class, Confidence: w.confidence, Degraded: w.degraded}
	}
	var buf []byte
	var vecSamples []pmu.Sample
	for _, v := range in.vectors {
		vecSamples = append(vecSamples, pmu.Sample{Names: in.names, Counts: v, Instructions: 1})
	}
	robust, _, err = timeClassify(det, vecSamples, reps*10)
	if err != nil {
		return err
	}
	for r := 0; r < reps*2; r++ {
		v := r % len(in.ensVectors)
		s := pmu.Sample{Names: in.ensNames, Counts: in.ensVectors[v], Instructions: 1}
		t0 := time.Now()
		if _, err := ens.ClassifyRobust(s); err != nil {
			return err
		}
		ensLat = append(ensLat, us(time.Since(t0)))
	}
	for r := 0; r < reps*2; r++ {
		t0 := time.Now()
		if err := det.ClassifyVectors(in.names, in.frame.Vecs, in.frame.Width, classes); err != nil {
			return err
		}
		batch = append(batch, float64(time.Since(t0).Nanoseconds())/binVectors)
		t1 := time.Now()
		if _, err := serve.DecodeBinRequest(frame); err != nil {
			return err
		}
		if buf, err = serve.AppendBinResponse(buf[:0], resp); err != nil {
			return err
		}
		codec = append(codec, us(time.Since(t1)))
	}
	ok := true
	for i, c := range classes {
		ok = b.check(c == in.frameWant[i].class, "ClassifyVectors vector %d gave %s, ClassifyRobust %s", i, c, in.frameWant[i].class) && ok
	}
	b.op(ok)
	b.layer["core.classify_robust_ns"] = median(robust) * 1e6
	b.layer["ensemble.classify_us"] = median(ensLat)
	b.layer["ml.batch_ns_per_vec"] = median(batch)
	b.layer["serve.bin_codec_us"] = median(codec)
	return nil
}

// metricValueOf reads one series from a Metrics.Render exposition.
func metricValueOf(expo, name string) float64 {
	for _, line := range strings.Split(expo, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// histMean is a histogram's mean over the observations made between two
// expositions.
func histMean(before, after, name string) float64 {
	n := metricValueOf(after, name+"_count") - metricValueOf(before, name+"_count")
	if n <= 0 {
		return 0
	}
	return (metricValueOf(after, name+"_sum") - metricValueOf(before, name+"_sum")) / n
}
