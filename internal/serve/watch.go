package serve

// GET /v1/watch — the live monitoring endpoint. It runs the seeded
// phased demo workload on a fresh simulated machine and streams the
// online detection engine's events (window verdicts, phase changes,
// drift alarms, the closing summary) as Server-Sent Events. The
// endpoint is admission-controlled like the other heavy endpoints
// (429 + Retry-After once the watch limiter saturates) and drains on
// shutdown: an in-flight session is cancelled at the next slice
// boundary, the engine emits its done event marked truncated, and the
// handler exits only after that event reached the client.
//
// Backpressure lives in the stream subscription: the handler consumes a
// bounded drop-oldest ring, so a slow SSE reader loses window events
// (counted in fsml_stream_windows_dropped_total) instead of stalling
// the simulation or growing a queue.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fsml/internal/core"
	"fsml/internal/faults"
	"fsml/internal/stream"
)

// WatchQuery is the query-parameter surface of GET /v1/watch, shared by
// the server's parser and the client's Watch call.
type WatchQuery struct {
	// Spec is the window spec, "size[:stride[:hysteresis]]" ("" = the
	// stream default, 8:8:3).
	Spec string
	// Program is the workload to monitor. Only the built-in phased demo
	// ("phases-demo") is servable; "" selects it.
	Program string
	// Detector is the registry key to classify with ("" = server
	// default).
	Detector string
	// Seed drives the session's machine and PMU (default 1).
	Seed uint64
	// Threads and Iters shape the demo workload: worker threads
	// (default 6) and per-phase iterations per thread (default 20000).
	Threads int
	Iters   int
	// SliceRounds is the scheduler-round length of one slice sample
	// (default 500).
	SliceRounds int
	// Buf is the SSE subscription's ring depth (default 64).
	Buf int
	// NoDrift disables drift alarms (they default on, against an
	// envelope derived from the detector's tree).
	NoDrift bool
}

// watchLimits bound the attacker-controlled session parameters. The
// window spec has its own bounds in stream.ParseWindowSpec.
const (
	maxWatchThreads = 64
	maxWatchIters   = 1 << 22
	maxWatchSlice   = 1 << 20
	maxWatchBuf     = 1 << 12
)

// values reads the query back into URL parameters (client side).
func (q WatchQuery) values() url.Values {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("spec", q.Spec)
	set("program", q.Program)
	set("detector", q.Detector)
	if q.Seed != 0 {
		v.Set("seed", strconv.FormatUint(q.Seed, 10))
	}
	setInt := func(k string, n int) {
		if n != 0 {
			v.Set(k, strconv.Itoa(n))
		}
	}
	setInt("threads", q.Threads)
	setInt("iters", q.Iters)
	setInt("slice_rounds", q.SliceRounds)
	setInt("buf", q.Buf)
	if q.NoDrift {
		v.Set("drift", "0")
	}
	return v
}

// parseWatchQuery decodes and bounds the session parameters. Every
// rejection is a 400-mapped badRequestError naming the parameter.
func parseWatchQuery(v url.Values) (WatchQuery, error) {
	q := WatchQuery{
		Program:     v.Get("program"),
		Spec:        v.Get("spec"),
		Detector:    v.Get("detector"),
		Seed:        1,
		Threads:     6,
		Iters:       20000,
		SliceRounds: 500,
		Buf:         64,
	}
	if q.Program == "" {
		q.Program = stream.DemoProgram
	}
	if q.Program != stream.DemoProgram {
		return q, badRequestf("watch: unknown program %q (only %q streams)", q.Program, stream.DemoProgram)
	}
	if s := v.Get("seed"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return q, badRequestf("watch: seed %q: not a decimal number", s)
		}
		q.Seed = n
	}
	intParam := func(name string, dst *int, min, max int) error {
		s := v.Get(name)
		if s == "" {
			return nil
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < min || n > max {
			return badRequestf("watch: %s %q: want an integer in [%d, %d]", name, s, min, max)
		}
		*dst = n
		return nil
	}
	if err := intParam("threads", &q.Threads, 1, maxWatchThreads); err != nil {
		return q, err
	}
	if err := intParam("iters", &q.Iters, 1, maxWatchIters); err != nil {
		return q, err
	}
	if err := intParam("slice_rounds", &q.SliceRounds, 1, maxWatchSlice); err != nil {
		return q, err
	}
	if err := intParam("buf", &q.Buf, 1, maxWatchBuf); err != nil {
		return q, err
	}
	switch v.Get("drift") {
	case "", "1", "true":
	case "0", "false":
		q.NoDrift = true
	default:
		return q, badRequestf("watch: drift %q: want 0 or 1", v.Get("drift"))
	}
	return q, nil
}

// handleWatch streams one monitoring session as SSE.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add(mReqWatch, 1)
	q, err := parseWatchQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := stream.ParseWindowSpec(q.Spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, fmt.Errorf("watch: response writer cannot stream"))
		return
	}
	det, _, err := s.detector(r.Context(), q.Detector)
	if err != nil {
		s.writeError(w, err)
		return
	}

	col := core.NewCollector()
	col.Parallelism = s.cfg.Parallelism
	if s.cfg.Faults.Enabled() {
		col.Faults = faults.New(s.cfg.Faults)
	}
	var env *stream.Envelope
	if !q.NoDrift {
		env = stream.EnvelopeFromTree(det.Tree, 0)
	}
	mc := stream.MonitorConfig{
		Spec:        spec,
		SliceRounds: q.SliceRounds,
		Seed:        q.Seed,
		Envelope:    env,
		Counters:    s.metrics,
	}
	if s.lc != nil {
		// Feed the lifecycle's drift debouncer losslessly: OnEvent runs
		// on the session goroutine in canonical order, so the loop sees
		// every alarm and clear even when SSE subscribers drop events.
		mc.OnEvent = s.lc.ObserveStream
	}
	mon, err := stream.NewMonitor(col, det, mc)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sub, err := mon.Subscribe(q.Buf)
	if err != nil {
		s.writeError(w, err)
		return
	}

	// The session ends when the workload finishes, the client goes away,
	// or the server begins shutting down — whichever comes first. The
	// last two truncate: the engine still emits its done event, and the
	// loop below delivers it before the handler (and the drain) completes.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.watchStop:
			cancel()
		case <-ctx.Done():
		}
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	runErr := make(chan error, 1)
	go func() {
		_, err := mon.Run(ctx, stream.PhasedKernels(q.Threads, q.Iters))
		runErr <- err
	}()
	clientGone := false
	for ev := range sub.Events() {
		if clientGone {
			continue // drain so the channel close is observed
		}
		if err := writeSSE(w, flusher, ev); err != nil {
			// The client hung up mid-stream: stop the session and keep
			// draining the subscription until Run closes it.
			cancel()
			clientGone = true
		}
	}
	if err := <-runErr; err != nil && !clientGone {
		// The pipeline failed mid-stream; the 200 header is long gone,
		// so the error travels as a terminal SSE event.
		blob, _ := json.Marshal(ErrorResponse{Error: err.Error()})
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", blob)
		flusher.Flush()
	}
}

// writeSSE renders one stream event in the text/event-stream framing:
// the engine sequence number as the event id, the kind as the event
// name, the JSON payload as data.
func writeSSE(w io.Writer, f http.Flusher, ev stream.Event) error {
	blob, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, blob); err != nil {
		return err
	}
	f.Flush()
	return nil
}

// ---------------------------------------------------------------------------
// Client side

// Watch opens a live monitoring session and invokes fn for every event
// the server delivers, in order, until the stream ends; it returns the
// closing summary. A non-nil error from fn aborts the session (the
// connection closes, which cancels it server-side). Connection attempts
// honor the client's retry policy the way GETs do — a shed (429) or
// shutting-down (503) rejection backs off and redials — but once events
// start flowing there are no retries: a resumed session would replay
// from the start and double-deliver.
func (c *Client) Watch(ctx context.Context, q WatchQuery, fn func(stream.Event) error) (*stream.Summary, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resp, err := c.dialWatch(ctx, q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var summary *stream.Summary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	var kind string
	var data strings.Builder
	flush := func() error {
		defer func() { kind = ""; data.Reset() }()
		if data.Len() == 0 {
			return nil
		}
		if kind == "error" {
			var e ErrorResponse
			if json.Unmarshal([]byte(data.String()), &e) == nil && e.Error != "" {
				return fmt.Errorf("serve: watch stream failed: %s", e.Error)
			}
			return fmt.Errorf("serve: watch stream failed: %s", data.String())
		}
		var ev stream.Event
		if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
			return fmt.Errorf("serve: decoding watch event: %w", err)
		}
		if ev.Kind == stream.KindDone {
			summary = ev.Summary
		}
		if fn != nil {
			return fn(ev)
		}
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return summary, err
			}
		case strings.HasPrefix(line, "event:"):
			kind = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := flush(); err != nil {
		return summary, err
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return summary, err
	}
	if summary == nil {
		return nil, fmt.Errorf("serve: watch stream ended without a done event")
	}
	return summary, nil
}

// dialWatch opens the SSE response, retrying not-processed rejections
// per the client's policy.
func (c *Client) dialWatch(ctx context.Context, q WatchQuery) (*http.Response, error) {
	path := "/v1/watch"
	if enc := q.values().Encode(); enc != "" {
		path += "?" + enc
	}
	for attempt := 0; ; attempt++ {
		target, err := c.endpoint(path)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := c.httpClient().Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		if err == nil {
			blob, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
			resp.Body.Close()
			apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())}
			var e ErrorResponse
			if json.Unmarshal(blob, &e) == nil && e.Error != "" {
				apiErr.Message = e.Error
			} else {
				apiErr.Message = strings.TrimSpace(string(blob))
			}
			err = apiErr
		}
		ok, hint := retryable(http.MethodGet, err)
		if !ok || attempt >= c.Retry.Max {
			return nil, err
		}
		delay := c.Retry.Backoff.Delay(attempt)
		if hint > delay {
			delay = hint
		}
		if serr := c.Retry.sleep(ctx, delay); serr != nil {
			return nil, serr
		}
	}
}
