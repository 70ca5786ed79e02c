package serve

// The classify pipeline. Every classify wire format — JSON vectors and
// traces, raw perf output, binary frames — only decodes its request
// into a classifyInput and encodes the classifyResult; Server.classify
// does everything in between: resolve the detector or ensemble, turn
// the input into samples, classify them, time the stage, count degraded
// verdicts, and mirror each verdict to the model lifecycle.
//
// Classification runs inline in the handler goroutine. A verdict is one
// tree walk (or one trace replay), so there is nothing to amortize by
// queueing; the admission limiter already bounds how many classify
// handlers run at once, and the shutdown gate drains them.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fsml/internal/core"
	"fsml/internal/faults"
	"fsml/internal/machine"
	"fsml/internal/perfingest"
	"fsml/internal/pmu"
	"fsml/internal/trace"
)

// classifyInput is one decoded classify request in wire-neutral form.
// Exactly one of vecs, trace, and sample carries the workload.
type classifyInput struct {
	// detector is the requested registry key ("" = the default).
	detector string
	// ensemble selects the multi-pathology ensemble.
	ensemble bool

	// vecs holds pre-normalized rows of width values, named by events
	// (nil = the classifier's own attributes); suspects are counters the
	// caller flags as unreliable.
	vecs             []float64
	width            int
	events, suspects []string
	// columnar lets clean rows against a flat tree classify in one
	// columnar pass (binary frames).
	columnar bool

	// trace is an access trace to replay under seed (0 means 1).
	trace []byte
	seed  uint64

	// sample is an already measured sample (perf uploads).
	sample *pmu.Sample
}

// classifyResult is the pipeline's answer: the registry key that
// produced it and one verdict per sample, plus the suspects of the
// first verdict that has any and the ensemble's pathology ranking
// (single-sample ensemble requests only).
type classifyResult struct {
	key         string
	verdicts    []BinVerdict
	suspects    []string
	pathologies []core.PathologyScore
}

// classify is the one classify pipeline behind every wire format.
func (s *Server) classify(ctx context.Context, in *classifyInput) (classifyResult, error) {
	m, key, err := s.modelFor(ctx, in.detector, in.ensemble)
	if err == nil {
		// A lazy load may have outlived the request's deadline.
		err = ctx.Err()
	}
	if err != nil {
		return classifyResult{}, err
	}
	c0 := time.Now()
	res := classifyResult{key: key}
	switch {
	case in.sample != nil:
		err = s.judge(&res, m, *in.sample, nil, 0)
		if err != nil {
			err = badRequestf("classify: %v", err)
		}
	case len(in.trace) > 0:
		err = s.classifyTrace(&res, m, in)
	default:
		err = s.classifyVectors(&res, m, in)
	}
	s.metrics.Observe(mClassifySec, latencyBuckets, time.Since(c0).Seconds())
	if err != nil {
		return classifyResult{}, err
	}
	for _, v := range res.verdicts {
		if v.Degraded {
			s.metrics.Add(mDegraded, 1)
			break
		}
	}
	return res, nil
}

// judge classifies one sample, appends its verdict, and mirrors it to
// the lifecycle. kernels, when non-nil, is the replayable workload
// behind the sample, so the shadow scorer can judge a disagreement
// against instrumentation ground truth.
func (s *Server) judge(res *classifyResult, m model, sample pmu.Sample, kernels []machine.Kernel, seconds float64) error {
	rr, err := m.classify(sample)
	if err != nil {
		return err
	}
	s.mirror(res.key, rr.Class, rr.Confidence, sample, kernels)
	res.verdicts = append(res.verdicts, BinVerdict{Class: rr.Class, Confidence: rr.Confidence, Degraded: rr.Degraded, Seconds: seconds})
	if res.suspects == nil {
		res.suspects = rr.Suspects
	}
	res.pathologies = rr.Pathologies
	return nil
}

// classifyVectors classifies pre-normalized rows. Each row is wrapped
// in a synthetic sample with an instruction normalizer of 1, so the
// values pass through the classifier's projection unchanged.
func (s *Server) classifyVectors(res *classifyResult, m model, in *classifyInput) error {
	events := in.events
	if len(events) == 0 {
		events = m.attrs()
		if len(events) != in.width {
			return badRequestf("classify: detector expects %d events, vector has %d (name them via events)", len(events), in.width)
		}
	}
	var flags []pmu.CountFlag
	if len(in.suspects) > 0 {
		idx := make(map[string]int, len(events))
		for i, n := range events {
			idx[n] = i
		}
		flags = make([]pmu.CountFlag, len(events))
		for _, n := range in.suspects {
			i, ok := idx[n]
			if !ok {
				return badRequestf("classify: suspect event %q is not in the vector", n)
			}
			flags[i] = pmu.FlagStuck
		}
	}
	n := len(in.vecs) / in.width
	row := func(i int) []float64 { return in.vecs[i*in.width : (i+1)*in.width] }

	// Fast path: clean rows against the single detector run columnar —
	// one projection, one flat-tree pass, interned verdict strings.
	if in.columnar && flags == nil && m.det != nil {
		classes := make([]string, n)
		if err := m.det.ClassifyVectors(events, in.vecs, in.width, classes); err != nil {
			return badRequestf("classify: %v", err)
		}
		res.verdicts = make([]BinVerdict, n)
		for i, c := range classes {
			res.verdicts[i] = BinVerdict{Class: c, Confidence: 1}
			s.mirror(res.key, c, 1, pmu.Sample{Names: events, Counts: row(i), Instructions: 1}, nil)
		}
		return nil
	}
	res.verdicts = make([]BinVerdict, 0, n)
	for i := 0; i < n; i++ {
		sample := pmu.Sample{Names: events, Counts: row(i), Instructions: 1, Flags: flags}
		if err := s.judge(res, m, sample, nil, 0); err != nil {
			return badRequestf("classify: %v", err)
		}
	}
	return nil
}

// classifyTrace replays an uploaded trace on a fresh simulated machine,
// measures it with the emulated PMU (under the server's fault config,
// if any), and classifies the measurement. An unusable sample — possible
// only under fault injection — gets re-seeded retries, mirroring the
// offline collector.
func (s *Server) classifyTrace(res *classifyResult, m model, in *classifyInput) error {
	tr, err := trace.Parse(bytes.NewReader(in.trace))
	if err != nil {
		return badRequestf("classify: %v", err)
	}
	seed := in.seed
	if seed == 0 {
		seed = 1
	}
	c := core.NewCollector()
	if s.cfg.Faults.Enabled() {
		c.Faults = faults.New(s.cfg.Faults)
		c.Retries = 2
	}
	obs, _, err := c.MeasureRetry(fmt.Sprintf("serve/trace/seed=%d", seed), seed, func() ([]machine.Kernel, error) {
		return tr.Kernels(), nil
	})
	if err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	if err := s.judge(res, m, obs.Sample, tr.Kernels(), obs.Seconds); err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Model resolution

// modelFor resolves a request's model through the registry: the
// ensemble when the request opted in with ?ensemble=1 (an empty key
// means the default quick seed-1 spec), the detector otherwise.
func (s *Server) modelFor(ctx context.Context, key string, ens bool) (model, string, error) {
	if ens {
		if key == "" {
			key = EnsembleSpec{Quick: true, Seed: 1}.Key()
		}
		e, _, err := s.reg.Ensemble(ctx, key)
		return model{ens: e}, key, err
	}
	det, key, err := s.detector(ctx, key)
	return model{det: det}, key, err
}

// attrs returns the model's expected event list (for vector requests
// that name no events).
func (m model) attrs() []string {
	if m.ens != nil {
		return m.ens.Attrs
	}
	return m.det.Tree.Attrs
}

// classify runs the sample through whichever model is set. The ranked
// pathologies are non-nil only on the ensemble path.
func (m model) classify(s pmu.Sample) (core.RobustResult, error) {
	if m.ens != nil {
		return m.ens.ClassifyRobust(s)
	}
	return m.det.ClassifyRobust(s)
}

// ---------------------------------------------------------------------------
// POST /v1/classify

// handleClassify serves the JSON envelope and raw perf uploads.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// Observed via defer so error and timeout responses land in the
	// latency histogram too, not just successes.
	defer func() { s.metrics.Observe(mRequestSec, latencyBuckets, time.Since(t0).Seconds()) }()
	s.metrics.Add(mReqClassify, 1)
	var (
		in        classifyInput
		timeoutMS int64
		resp      ClassifyResponse
		err       error
	)
	if isPerfUpload(r) {
		err = decodePerfUpload(w, r, &in, &timeoutMS, &resp)
	} else {
		err = decodeClassifyJSON(w, r, &in, &timeoutMS)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	in.ensemble = ensembleRequested(r.URL.Query().Get("ensemble"))
	ctx, cancel := s.reqContext(r, timeoutMS)
	defer cancel()
	res, err := s.classify(ctx, &in)
	if err != nil {
		s.writeError(w, err)
		return
	}
	v := res.verdicts[0]
	resp.Class, resp.Confidence, resp.Degraded, resp.Seconds = v.Class, v.Confidence, v.Degraded, v.Seconds
	resp.Suspects, resp.Detector, resp.Pathologies = res.suspects, res.key, res.pathologies
	s.writeJSON(w, &resp)
}

// decodeClassifyJSON decodes and validates the JSON request envelope.
func decodeClassifyJSON(w http.ResponseWriter, r *http.Request, in *classifyInput, timeoutMS *int64) error {
	var req ClassifyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	if err := validateClassify(&req); err != nil {
		return err
	}
	*in = classifyInput{
		detector: req.Detector,
		vecs:     req.Vector, width: len(req.Vector),
		events: req.Events, suspects: req.SuspectEvents,
		trace: req.Trace, seed: req.Seed,
	}
	*timeoutMS = req.TimeoutMS
	return nil
}

// validateClassify enforces the request invariants before any work is
// done.
func validateClassify(req *ClassifyRequest) error {
	hasVector := len(req.Vector) > 0
	hasTrace := len(req.Trace) > 0
	switch {
	case hasVector && hasTrace:
		return badRequestf("classify: set vector or trace, not both")
	case !hasVector && !hasTrace:
		return badRequestf("classify: need a vector or a trace")
	}
	if hasTrace && (len(req.Events) > 0 || len(req.SuspectEvents) > 0) {
		return badRequestf("classify: events/suspect_events apply to vector requests only")
	}
	if hasVector && len(req.Events) > 0 && len(req.Events) != len(req.Vector) {
		return badRequestf("classify: %d events but %d vector entries", len(req.Events), len(req.Vector))
	}
	return nil
}

// PerfContentType is the POST /v1/classify media type for raw perf
// tool output: the body is `perf stat` (human or -x, CSV, plain or
// interval) or `perf c2c report` text, exactly as the tool printed it.
// Because the body is not the JSON envelope, the detector key and
// deadline ride in the query string: ?detector=KEY&timeout_ms=N.
const PerfContentType = "text/x-perf-stat"

// isPerfUpload reports whether a classify request carries raw perf
// output instead of the JSON request envelope.
func isPerfUpload(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == PerfContentType
}

// decodePerfUpload decodes a raw perf capture: parse (format
// auto-detected) and map onto the Table-2 feature space through the
// alias table. The sample is classified robustly, so features the
// capture did not measure degrade the verdict's confidence rather than
// failing the request. The response carries the detected format and
// any unmapped events so callers can tell how much of their capture was
// actually used.
func decodePerfUpload(w http.ResponseWriter, r *http.Request, in *classifyInput, timeoutMS *int64, resp *ClassifyResponse) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return badRequestf("classify: reading perf upload: %v", err)
	}
	rep, err := perfingest.Parse(bytes.NewReader(body))
	if err != nil {
		return badRequestf("classify: %v", err)
	}
	sample, mapping, err := rep.Sample()
	if err != nil {
		return badRequestf("classify: %v", err)
	}
	q := r.URL.Query()
	if v := q.Get("timeout_ms"); v != "" {
		*timeoutMS, err = strconv.ParseInt(v, 10, 64)
		if err != nil || *timeoutMS < 0 {
			return badRequestf("classify: bad timeout_ms %q", v)
		}
	}
	*in = classifyInput{detector: q.Get("detector"), sample: &sample}
	resp.PerfFormat, resp.UnmappedEvents = string(rep.Format), mapping.Unmapped
	return nil
}

// ensembleRequested reports whether a classify request opted into the
// multi-pathology ensemble via ?ensemble=1 (any true-ish boolean works).
func ensembleRequested(q string) bool {
	if q == "" {
		return false
	}
	b, err := strconv.ParseBool(q)
	return err == nil && b
}
