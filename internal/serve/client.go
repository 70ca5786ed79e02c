package serve

// A minimal client for the detection service, wrapping the wire types
// so Go callers don't hand-roll JSON. Stdlib net/http only, like the
// server — plus a self-healing retry layer: capped exponential backoff
// with deterministic seeded jitter (internal/resilience), Retry-After
// honoring, and retry-only-when-safe semantics.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fsml/internal/resilience"
)

// RetryPolicy shapes the client's self-healing behavior. The zero value
// never retries; set Max to opt in.
//
// Retry safety: a shed (429) or shutdown/breaker rejection (503)
// response is a server-side guarantee that the request was NOT
// processed, so those are retried for every verb. Anything else —
// transport errors included, where the request may have reached the
// server — is retried only for idempotent (GET) calls. When the server
// sends a Retry-After hint, the client waits at least that long,
// whichever of hint and backoff is larger.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt
	// (0 = at most one attempt, no retries).
	Max int
	// Backoff shapes the delays between attempts; the zero value is
	// 50ms doubling to a 2s cap with ±20% seeded jitter. Delays are a
	// pure function of (Backoff.Seed, attempt) — reproducible.
	Backoff resilience.Backoff
	// Sleep overrides the inter-attempt wait (tests record schedules
	// or skip real time). Nil sleeps on the wall clock, honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// sleep waits d, honoring ctx, via the override when set.
func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client talks to a detection server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8723".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Retry is the self-healing policy (zero value: no retries).
	Retry RetryPolicy
}

// httpClient returns the transport to use: HTTPClient, or
// http.DefaultClient when unset.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// NewClient returns a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// BaseURLError reports a Client.BaseURL that cannot form request URLs:
// empty, missing an http/https scheme, or missing a host. It is typed
// so misconfiguration fails loudly on the first call instead of
// surfacing as a cryptic transport error (or, for a trailing slash, as
// silently doubled "//v1/..." paths).
type BaseURLError struct {
	BaseURL string
	Reason  string
}

func (e *BaseURLError) Error() string {
	return fmt.Sprintf("serve: bad base URL %q: %s", e.BaseURL, e.Reason)
}

// NormalizeBaseURL canonicalizes a server root: trailing slashes are
// stripped (so path concatenation never yields "//v1/...") and a URL
// without an http/https scheme or a host is rejected with a typed
// *BaseURLError.
func NormalizeBaseURL(raw string) (string, error) {
	trimmed := strings.TrimRight(raw, "/")
	if trimmed == "" {
		return "", &BaseURLError{BaseURL: raw, Reason: "empty URL"}
	}
	u, err := url.Parse(trimmed)
	if err != nil {
		return "", &BaseURLError{BaseURL: raw, Reason: err.Error()}
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", &BaseURLError{BaseURL: raw, Reason: fmt.Sprintf("scheme %q, want http or https", u.Scheme)}
	}
	if u.Host == "" {
		return "", &BaseURLError{BaseURL: raw, Reason: "missing host"}
	}
	return trimmed, nil
}

// endpoint joins BaseURL and path, normalizing the base at call time so
// a struct-literal Client{BaseURL: "http://host/"} behaves exactly like
// one built by NewClient.
func (c *Client) endpoint(path string) (string, error) {
	base, err := NormalizeBaseURL(c.BaseURL)
	if err != nil {
		return "", err
	}
	return base + path, nil
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint, when present (shed
	// and circuit-open responses carry one).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Status, e.Message)
}

// retryable classifies an attempt's failure: can this verb safely try
// again, and did the server ask for a minimum wait?
func retryable(method string, err error) (ok bool, hint time.Duration) {
	var buErr *BaseURLError
	if errors.As(err, &buErr) {
		// A malformed base URL never heals on its own; retrying would
		// just pad the failure with backoff sleeps.
		return false, 0
	}
	if apiErr, isAPI := err.(*APIError); isAPI {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Shed / shutting down / breaker open: the server did not
			// process the request; any verb may retry.
			return true, apiErr.RetryAfter
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			// The request may have executed somewhere; only idempotent
			// calls retry.
			return method == http.MethodGet, apiErr.RetryAfter
		default:
			return false, 0
		}
	}
	// Transport-level failure: the request may or may not have reached
	// the server, so only idempotent calls retry.
	return method == http.MethodGet, 0
}

// do runs one JSON round trip with the client's retry policy. out may
// be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var blob []byte
	if in != nil {
		var err error
		if blob, err = json.Marshal(in); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.roundTrip(ctx, method, path, blob, in != nil, out)
		if err == nil {
			return nil
		}
		ok, hint := retryable(method, err)
		if !ok || attempt >= c.Retry.Max {
			return err
		}
		delay := c.Retry.Backoff.Delay(attempt)
		if hint > delay {
			delay = hint
		}
		if serr := c.Retry.sleep(ctx, delay); serr != nil {
			return serr
		}
	}
}

// roundTrip performs one attempt.
func (c *Client) roundTrip(ctx context.Context, method, path string, blob []byte, hasBody bool, out any) error {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(blob)
	}
	target, err := c.endpoint(path)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBlob, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())}
		var e ErrorResponse
		if json.Unmarshal(respBlob, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(respBlob))
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(respBlob, out)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or an HTTP-date ("Fri, 08 Aug 2026 09:00:00
// GMT", including the obsolete RFC 850 and asctime layouts that
// http.ParseTime accepts). This server only emits delay-seconds, but
// the client also talks through proxies and load balancers that
// rewrite the header into the date form. A date in the past — or
// anything unparseable — yields 0, never a negative wait.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := t.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// Classify posts one classification request.
func (c *Client) Classify(ctx context.Context, req ClassifyRequest) (*ClassifyResponse, error) {
	var out ClassifyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/classify", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClassifyEnsemble posts one classification request to the
// multi-pathology ensemble (?ensemble=1): the response's Pathologies
// ranks every label the ensemble knows. req.Detector selects an
// "ensemble:..." key ("" = the server's default ensemble spec).
func (c *Client) ClassifyEnsemble(ctx context.Context, req ClassifyRequest) (*ClassifyResponse, error) {
	var out ClassifyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/classify?ensemble=1", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClassifyPerf uploads raw `perf stat` / `perf c2c report` output
// (see internal/perfingest) for classification: the body goes up
// verbatim under the PerfContentType media type, the server maps it
// onto the detector's feature space, and events the capture is missing
// degrade the verdict instead of failing it. detector selects a
// registry key ("" = server default). Retries follow the client's
// policy, exactly as for Classify.
func (c *Client) ClassifyPerf(ctx context.Context, detector string, perf []byte) (*ClassifyResponse, error) {
	return c.classifyPerf(ctx, detector, perf, false)
}

// ClassifyPerfEnsemble is ClassifyPerf against the multi-pathology
// ensemble (?ensemble=1). Counters the capture is missing — commonly
// the remote-DRAM event — degrade the affected members per-member
// rather than failing the request.
func (c *Client) ClassifyPerfEnsemble(ctx context.Context, detector string, perf []byte) (*ClassifyResponse, error) {
	return c.classifyPerf(ctx, detector, perf, true)
}

func (c *Client) classifyPerf(ctx context.Context, detector string, perf []byte, ens bool) (*ClassifyResponse, error) {
	q := url.Values{}
	if detector != "" {
		q.Set("detector", detector)
	}
	if ens {
		q.Set("ensemble", "1")
	}
	path := "/v1/classify"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	for attempt := 0; ; attempt++ {
		out, err := c.perfRoundTrip(ctx, path, perf)
		if err == nil {
			return out, nil
		}
		ok, hint := retryable(http.MethodPost, err)
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

// perfRoundTrip performs one raw perf-upload attempt.
func (c *Client) perfRoundTrip(ctx context.Context, path string, perf []byte) (*ClassifyResponse, error) {
	target, err := c.endpoint(path)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(perf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", PerfContentType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())}
		var e ErrorResponse
		if json.Unmarshal(blob, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(blob))
		}
		return nil, apiErr
	}
	var out ClassifyResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report posts one report sweep request.
func (c *Client) Report(ctx context.Context, req ReportRequest) (*ReportResponse, error) {
	var out ReportResponse
	if err := c.do(ctx, http.MethodPost, "/v1/report", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterDetector uploads a serialized model (the `fsml train -o`
// format) and returns its registry key.
func (c *Client) RegisterDetector(ctx context.Context, model []byte) (*RegisterResponse, error) {
	var out RegisterResponse
	req := RegisterRequest{Model: json.RawMessage(model)}
	if err := c.do(ctx, http.MethodPost, "/v1/detectors", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Train asks the server for a lazily trained detector and returns its
// registry key (training happens server-side on first use).
func (c *Client) Train(ctx context.Context, spec TrainSpec) (*RegisterResponse, error) {
	var out RegisterResponse
	req := RegisterRequest{Train: &TrainSpecRequest{Quick: spec.Quick, Seed: spec.Seed}}
	if err := c.do(ctx, http.MethodPost, "/v1/detectors", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Detectors lists the server's registry.
func (c *Client) Detectors(ctx context.Context) (*DetectorsResponse, error) {
	var out DetectorsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/detectors", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready checks readiness. Unlike the other calls it returns the parsed
// body even when the server answers 503 — a not-ready report is data,
// not an error — so rr.Ready distinguishes the cases; err is reserved
// for transport and decoding failures. Readiness probes are exempt from
// the retry policy: a prober wants the current answer, not a padded one.
func (c *Client) Ready(ctx context.Context) (*ReadyResponse, error) {
	target, err := c.endpoint("/readyz")
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(blob))}
	}
	var out ReadyResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lifecycle fetches the self-healing loop's status and run history.
// limit bounds the history (0 = server default of 16; negative = all
// retained).
func (c *Client) Lifecycle(ctx context.Context, limit int) (*LifecycleResponse, error) {
	path := "/v1/lifecycle"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	} else if limit < 0 {
		path += "?limit=0"
	}
	var out LifecycleResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the raw metrics exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	target, err := c.endpoint("/metrics")
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(blob))}
	}
	return string(blob), nil
}
