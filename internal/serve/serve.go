// Package serve is the detection-as-a-service layer: a long-running
// HTTP server that keeps trained detectors hot in a registry, classifies
// each request inline through one pipeline (see classify.go), and
// exposes the paper's pipeline as a JSON API.
//
// Endpoints:
//
//	POST /v1/classify    classify a normalized event vector, an uploaded
//	                     (optionally gzip) access trace, or — with a
//	                     text/x-perf-stat body — raw `perf stat` /
//	                     `perf c2c report` output
//	POST /v1/classify-bin the same classifications over the binary frame
//	                     protocol (batched vectors; see wire.go)
//	POST /v1/report      full report.Options sweep of a named workload
//	GET  /v1/watch       live monitoring: stream windowed verdicts,
//	                     phase changes, and drift alarms as SSE
//	GET  /v1/detectors   list the detector registry
//	POST /v1/detectors   register an uploaded model or a train spec
//	GET  /healthz        liveness
//	GET  /readyz         readiness: overload, shutdown, breaker state
//	GET  /metrics        self-contained counters and histograms
//
// Everything is stdlib net/http. Served verdicts are byte-identical to
// one-shot classification: each request owns its seed and its simulated
// machine, so concurrency and parallelism change wall-clock time only.
//
// The server is built to stay up under abuse (see internal/resilience):
// classify and report admissions are bounded per endpoint and shed with
// 429 + Retry-After once the inflight cap and shed window are exhausted;
// lazy training sits behind a per-spec circuit breaker so a broken train
// spec fails fast instead of re-running full training per request; and
// registry persistence is crash-safe (atomic writes, corrupt files
// quarantined and retrained). /healthz answers as long as the process
// lives; /readyz tells load balancers whether this instance should be
// receiving traffic right now.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/faults"
	"fsml/internal/lifecycle"
	"fsml/internal/report"
	"fsml/internal/resilience"
	"fsml/internal/stream"
	"fsml/internal/suite"
)

// Config shapes a Server. The zero value serves on 127.0.0.1:8723 with a
// quick-trained default detector and an 8-entry registry.
type Config struct {
	// Addr is the listen address for Start (default "127.0.0.1:8723").
	Addr string
	// Parallelism caps concurrent case simulations per report sweep and
	// per lazy training run (0 = GOMAXPROCS). Classify requests run
	// inline, one per admitted handler; MaxInflight bounds those.
	Parallelism int
	// RegistryDir, when non-empty, persists trained/uploaded models and
	// warm-starts the registry from disk (see Registry).
	RegistryDir string
	// RegistryCapacity bounds resident models, ensembles included
	// (default 8).
	RegistryCapacity int
	// DefaultDetector is the registry key used when a request names none
	// (default: the quick seed-1 train spec, so an empty config serves
	// out of the box after one lazy training run).
	DefaultDetector string
	// DefaultTimeout is the per-request deadline when the request does
	// not set timeout_ms (default 2m; negative disables).
	DefaultTimeout time.Duration
	// Faults injects deterministic counter faults into trace-replay
	// measurements (degraded classifications then surface in responses).
	// The zero value keeps counters honest.
	Faults faults.Config
	// MaxInflight bounds concurrently admitted requests per heavy
	// endpoint — classify and report each get their own limiter, so a
	// report storm cannot starve classification (default 64; negative
	// disables admission control).
	MaxInflight int
	// ShedAfter is how long an over-limit request may wait for an
	// admission slot before it is shed with 429 + Retry-After
	// (default 100ms; negative sheds immediately).
	ShedAfter time.Duration
	// BreakerThreshold is the consecutive lazy-training failures that
	// open a train spec's circuit breaker (default 3; negative
	// disables the breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open training breaker waits
	// before admitting one half-open retrain probe (default 15s).
	BreakerCooldown time.Duration
	// Train overrides the registry's lazy trainer (tests).
	Train func(spec TrainSpec) (*core.Detector, error)
	// TrainEnsemble overrides the registry's lazy ensemble trainer
	// (tests). base is the registry's detector for the spec's "train:"
	// key. Nil selects the widened-grid pipeline.
	TrainEnsemble func(spec EnsembleSpec, base *core.Detector) (*ensemble.Detector, error)
	// Lifecycle, when non-nil, enables the self-healing model loop:
	// drift alarms from watch sessions debounce into a retrain, the
	// candidate shadow-scores live traffic beside the incumbent, and
	// winning the budget flips the registry's active-version pointer
	// (with automatic rollback on regression). Registry, Counters,
	// Name, HistoryDir, and Parallelism are filled by the server when
	// left zero. See GET /v1/lifecycle and `fsml lifecycle`.
	Lifecycle *lifecycle.Config
	// Logf, when non-nil, receives one line per shed/error response,
	// tagged with the request's X-FSML-Request-ID when the caller sent
	// one — that is how the two hops of a fleet failover correlate in
	// logs. Nil keeps the server silent.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8723"
	}
	if c.RegistryCapacity <= 0 {
		c.RegistryCapacity = 8
	}
	if c.DefaultDetector == "" {
		c.DefaultDetector = TrainSpec{Quick: true, Seed: 1}.Key()
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.ShedAfter == 0 {
		c.ShedAfter = 100 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	return c
}

// Server is the detection service.
type Server struct {
	cfg     Config
	metrics *Metrics
	reg     *Registry

	limClassify *resilience.Limiter
	limReport   *resilience.Limiter
	limWatch    *resilience.Limiter

	// lc is the self-healing model loop (nil when disabled); lcErr
	// keeps a construction failure for /v1/lifecycle to surface — a
	// broken loop config degrades to a plain server, never a dead one.
	lc    *lifecycle.Manager
	lcErr error

	// watchStop is closed when shutdown begins, so long-lived watch
	// sessions truncate at their next slice boundary and the drain can
	// complete.
	watchStop chan struct{}

	// mu guards the shutdown gate: shutting flips once, inflight counts
	// admitted handlers still running, and handlersDone closes when the
	// last of them exits after shutdown began. An admitted request
	// always completes the drain; a request arriving after shutdown
	// began is rejected with 503 at the gate, never queued.
	mu           sync.Mutex
	shutting     bool
	inflight     int
	handlersDone chan struct{}

	httpServer *http.Server
	ln         net.Listener
}

// New builds a server (not yet listening; use Start, or mount Handler
// on a listener of your own).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	shedAfter := cfg.ShedAfter
	if shedAfter < 0 {
		shedAfter = 0
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		reg: NewRegistry(RegistryConfig{
			Capacity:         cfg.RegistryCapacity,
			Dir:              cfg.RegistryDir,
			Parallelism:      cfg.Parallelism,
			Train:            cfg.Train,
			Metrics:          m,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
		}),
		limClassify:  resilience.NewLimiter(cfg.MaxInflight, shedAfter),
		limReport:    resilience.NewLimiter(cfg.MaxInflight, shedAfter),
		limWatch:     resilience.NewLimiter(cfg.MaxInflight, shedAfter),
		watchStop:    make(chan struct{}),
		handlersDone: make(chan struct{}),
	}
	if cfg.TrainEnsemble != nil {
		s.reg.trainEnsemble = cfg.TrainEnsemble
	}
	if cfg.Lifecycle != nil {
		s.initLifecycle()
	}
	return s
}

// Metrics exposes the server's metric registry (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the model registry (embedders that pre-register).
func (s *Server) Registry() *Registry { return s.reg }

// RequestIDHeader is the correlation header. A fleet coordinator (or
// any proxy) stamps it on forwarded requests; the server echoes it on
// every response and tags shed/error log lines with it, so the hops of
// a failover are correlatable end to end.
const RequestIDHeader = "X-FSML-Request-ID"

// Handler returns the server's routing table. Work endpoints pass the
// admission gate (shutdown rejection, per-endpoint inflight limiting);
// the health, readiness, and metrics probes never do — they must answer
// precisely when the server is refusing work. The whole table sits
// behind the request-ID echo wrapper.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.admit(s.limClassify, mShedClassify, s.handleClassify))
	mux.HandleFunc("POST /v1/classify-bin", s.admit(s.limClassify, mShedClassify, s.handleClassifyBin))
	mux.HandleFunc("POST /v1/report", s.admit(s.limReport, mShedReport, s.handleReport))
	mux.HandleFunc("GET /v1/watch", s.admit(s.limWatch, mShedWatch, s.handleWatch))
	mux.HandleFunc("GET /v1/detectors", s.admit(nil, "", s.handleListDetectors))
	mux.HandleFunc("POST /v1/detectors", s.admit(nil, "", s.handleRegisterDetector))
	mux.HandleFunc("GET /v1/lifecycle", s.admit(nil, "", s.handleLifecycle))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		if sw.status >= 400 {
			if id == "" {
				id = "-"
			}
			s.logf("serve: %s %s -> %d (request-id %s)", r.Method, r.URL.Path, sw.status, id)
		}
	})
}

// logf forwards to cfg.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// statusWriter records the response status for the shed/error log line.
// It passes Flush through so SSE streaming (GET /v1/watch) keeps
// working behind the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit is the admission-control middleware. It rejects requests that
// arrive after shutdown began (503, never queued), sheds over-limit
// requests once the shed window expires (429 + Retry-After), and tracks
// admitted handlers so Shutdown can drain them. lim may be nil for
// endpoints that only need the shutdown gate.
func (s *Server) admit(lim *resilience.Limiter, shedMetric string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		if s.shutting {
			s.mu.Unlock()
			s.metrics.Add(mRejectShutdown, 1)
			s.writeError(w, ErrShuttingDown)
			return
		}
		s.inflight++
		s.mu.Unlock()
		defer s.handlerExit()
		if lim != nil {
			release, err := lim.Acquire(r.Context())
			if err != nil {
				if errors.Is(err, resilience.ErrOverloaded) {
					s.shed(w, shedMetric)
				} else {
					s.writeError(w, err) // the client gave up while waiting
				}
				return
			}
			defer release()
		}
		h(w, r)
	}
}

// shed renders a 429 load-shed response. Shed requests were never
// started, so clients may retry them after the Retry-After hint even
// when the verb is not idempotent.
func (s *Server) shed(w http.ResponseWriter, metric string) {
	s.metrics.Add(metric, 1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.ShedAfter)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "serve: overloaded, request shed; retry after backoff"})
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// hint, at least 1.
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// handlerExit retires one admitted handler and completes the shutdown
// drain when it was the last.
func (s *Server) handlerExit() {
	s.mu.Lock()
	s.inflight--
	if s.shutting && s.inflight == 0 {
		select {
		case <-s.handlersDone:
		default:
			close(s.handlersDone)
		}
	}
	s.mu.Unlock()
}

// Start listens on cfg.Addr and serves until Shutdown. It returns once
// the listener is accepting, so callers can immediately dial Addr().
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpServer = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpServer.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (valid after Start; lets ":0"
// configs discover their port).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: close the admission gate (new requests
// get 503, never queued), stop accepting connections, and wait for every
// already-admitted handler — classification included, since it runs
// inline — to complete. The whole drain is bounded by ctx: if admitted
// handlers outlive the deadline, Shutdown returns ctx.Err() and leaves
// the drain goroutine to finish behind it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutting {
		s.shutting = true
		// Watch sessions are long-lived by design; signal them before
		// waiting so they truncate (emitting their done event) instead
		// of holding the drain until their workload finishes.
		close(s.watchStop)
		if s.inflight == 0 {
			close(s.handlersDone)
		}
	}
	s.mu.Unlock()
	var err error
	if s.httpServer != nil {
		err = s.httpServer.Shutdown(ctx)
	}
	drained := make(chan struct{})
	go func() {
		<-s.handlersDone // admitted handlers first ...
		if s.lc != nil {
			s.lc.Close() // ... then the loop (finalizes the open run)
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Request plumbing

// maxBodyBytes bounds request bodies (uploaded traces dominate).
const maxBodyBytes = 64 << 20

// ErrShuttingDown rejects requests that arrive after shutdown began
// (HTTP 503).
var ErrShuttingDown = errors.New("serve: server is shutting down")

// badRequestError marks client errors (HTTP 400).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// UnknownDetectorError reports a registry key that is neither resident,
// nor on disk, nor lazily trainable (HTTP 404).
type UnknownDetectorError struct{ Key string }

func (e *UnknownDetectorError) Error() string {
	return fmt.Sprintf("serve: unknown detector %q: not cached, not on disk, and not a train: spec", e.Key)
}

// reqContext applies the per-request deadline: the request's timeout_ms
// if set, else the server default.
func (s *Server) reqContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// decodeJSON reads one JSON body into v, strictly.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("decoding request body: %v", err)
	}
	return nil
}

// writeJSON renders a 200 response. The body is marshaled before any
// of it goes out, so a value that cannot encode (a non-finite float)
// answers 500 through writeError instead of a silent empty 200.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.writeError(w, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

// errorStatus maps an error to its HTTP status plus the Retry-After
// hint (zero when none applies). Shared by the JSON and binary error
// renderers so both protocols agree on semantics.
func errorStatus(err error) (status int, retryAfter time.Duration) {
	status = http.StatusInternalServerError
	var br *badRequestError
	var ud *UnknownDetectorError
	var tu *TrainingUnavailableError
	var se *stream.SpecError
	var fe *FrameError
	switch {
	case errors.As(err, &br), errors.As(err, &se), errors.As(err, &fe):
		status = http.StatusBadRequest
	case errors.As(err, &ud):
		status = http.StatusNotFound
	case errors.As(err, &tu):
		// The train spec's circuit is open: fail fast, and tell the
		// client when the half-open probe will be admitted.
		status = http.StatusServiceUnavailable
		retryAfter = tu.RetryAfter
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	return status, retryAfter
}

// writeError maps an error to its status and renders the JSON error
// body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.metrics.Add(mReqErrors, 1)
	status, retryAfter := errorStatus(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// detector resolves a request's detector key through the registry. An
// empty key means "the default": with the lifecycle loop enabled that
// is the active-version pointer (a promotion changes what this returns,
// atomically); a pointer whose model cannot be loaded falls back to the
// configured default — counted, because serving the fallback model
// beats refusing the request.
func (s *Server) detector(ctx context.Context, key string) (*core.Detector, string, error) {
	if key == "" {
		key = s.activeDetectorKey()
		det, _, err := s.reg.Get(ctx, key)
		if err != nil && key != s.cfg.DefaultDetector {
			s.metrics.Add(mLifecycleFallback, 1)
			key = s.cfg.DefaultDetector
			det, _, err = s.reg.Get(ctx, key)
		}
		return det, key, err
	}
	det, _, err := s.reg.Get(ctx, key)
	if err != nil {
		return nil, key, err
	}
	return det, key, nil
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, HealthResponse{Status: "ok", Detectors: len(s.reg.List()), Version: Version()})
}

// buildVersion memoizes Version's debug.ReadBuildInfo walk.
var buildVersion struct {
	once sync.Once
	v    string
}

// Version resolves this binary's build version once: the main module
// version when stamped, else the VCS revision, else "devel". /healthz
// reports it so a fleet prober can surface mixed-version fleets.
func Version() string {
	buildVersion.once.Do(func() {
		buildVersion.v = "devel"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := info.Main.Version; v != "" && v != "(devel)" {
			buildVersion.v = v
			return
		}
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				buildVersion.v = kv.Value[:12]
				return
			}
		}
	})
	return buildVersion.v
}

// handleReady is the readiness probe: distinct from /healthz liveness,
// it reports whether this instance should receive traffic right now.
// Not ready (503 with the same JSON body) while shutting down, while
// both admission limiters are saturated, or while a training breaker is
// open. Load balancers poll it; the chaos test pins its transitions.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	shutting := s.shutting
	s.mu.Unlock()
	resp := ReadyResponse{
		ShuttingDown:     shutting,
		Overloaded:       s.limClassify.Saturated() || s.limReport.Saturated() || s.limWatch.Saturated(),
		InflightClassify: s.limClassify.Inflight(),
		InflightReport:   s.limReport.Inflight(),
		InflightWatch:    s.limWatch.Inflight(),
		OpenBreakers:     s.reg.OpenBreakers(),
		Detectors:        len(s.reg.List()),
	}
	if s.lc != nil {
		resp.Lifecycle = string(s.lc.State())
	}
	resp.Ready = !resp.ShuttingDown && !resp.Overloaded && len(resp.OpenBreakers) == 0
	if !resp.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
		return
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(s.metrics.Render()))
}

func (s *Server) handleListDetectors(w http.ResponseWriter, _ *http.Request) {
	s.metrics.Add(mReqDetectors, 1)
	s.writeJSON(w, DetectorsResponse{
		Detectors: s.reg.List(),
		Capacity:  s.cfg.RegistryCapacity,
		Disk:      s.reg.DiskKeys(),
	})
}

func (s *Server) handleRegisterDetector(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add(mReqDetectors, 1)
	var req RegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	switch {
	case len(req.Model) > 0 && req.Train != nil:
		s.writeError(w, badRequestf("register: set model or train, not both"))
	case len(req.Model) > 0:
		det, err := core.DecodeDetector(req.Model)
		if err != nil {
			s.writeError(w, badRequestf("register: %v", err))
			return
		}
		key, existed, err := s.reg.Register(det)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, RegisterResponse{Key: key, Cached: existed, TrainedOn: det.TrainedOn})
	case req.Train != nil:
		ctx, cancel := s.reqContext(r, 0)
		defer cancel()
		key := TrainSpec{Quick: req.Train.Quick, Seed: req.Train.Seed}.Key()
		det, hit, err := s.reg.Get(ctx, key)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, RegisterResponse{Key: key, Cached: hit, TrainedOn: det.TrainedOn})
	default:
		s.writeError(w, badRequestf("register: need a model upload or a train spec"))
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// Deferred so error and timeout responses are measured too.
	defer func() {
		sec := time.Since(t0).Seconds()
		s.metrics.Observe(mReportSec, latencyBuckets, sec)
		s.metrics.Observe(mRequestSec, latencyBuckets, sec)
	}()
	s.metrics.Add(mReqReport, 1)
	var req ReportRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Program == "" {
		s.writeError(w, badRequestf("report: need a program name"))
		return
	}
	if _, ok := suite.Lookup(req.Program); !ok {
		s.writeError(w, badRequestf("report: unknown program %q (see `fsml list`)", req.Program))
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	det, key, err := s.detector(ctx, req.Detector)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts := report.Options{
		Threads:     req.Threads,
		MaxInputs:   req.MaxInputs,
		Seed:        req.Seed,
		Parallelism: s.cfg.Parallelism,
	}
	rep, err := report.BuildContext(ctx, det, req.Program, opts)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, ReportResponse{Detector: key, Report: rep})
}
