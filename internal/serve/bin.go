package serve

// The binary classify endpoint: POST /v1/classify-bin speaks the
// length-prefixed frame protocol from wire.go instead of JSON. It
// exists for the hot path — a monitoring agent shipping thousands of
// event vectors per second — where JSON encode/decode dominates the
// actual tree walk. The handler only decodes the frame and encodes the
// answer; classification goes through the shared pipeline (classify.go),
// where a clean vector frame runs as one columnar pass through
// Detector.ClassifyVectors. Verdicts are identical to the JSON
// endpoint's: same projection cache, same flat tree, same degraded
// semantics when suspects are flagged.
//
// Error handling is split by layer, on purpose: middleware rejections
// (shed 429, shutdown 503) stay JSON so the client's retry classifier
// is shared with the JSON path, while handler errors are rendered as
// binary error frames with the same HTTP status the JSON path would
// use. The client branches on Content-Type and folds both into APIError.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// contentTypeBin is the frame protocol's media type.
const contentTypeBin = "application/octet-stream"

// handleClassifyBin serves POST /v1/classify-bin.
func (s *Server) handleClassifyBin(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// Deferred so error responses land in the latency histogram too.
	defer func() { s.metrics.Observe(mRequestSec, latencyBuckets, time.Since(t0).Seconds()) }()
	s.metrics.Add(mReqClassifyBin, 1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes+8)
	frame, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeBinError(w, badRequestf("classify-bin: reading frame: %v", err))
		return
	}
	req, err := DecodeBinRequest(frame)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	in := classifyInput{detector: req.Detector, trace: req.Trace, seed: req.Seed}
	if len(req.Trace) == 0 {
		if req.NumVecs() == 0 {
			s.writeBinError(w, badRequestf("classify-bin: empty vector frame"))
			return
		}
		in.vecs, in.width, in.columnar = req.Vecs, req.Width, true
		in.events, in.suspects = req.Events, req.Suspects
	}
	ctx, cancel := s.reqContext(r, 0)
	defer cancel()
	res, err := s.classify(ctx, &in)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	resp := &BinClassifyResponse{Detector: res.key, Suspects: res.suspects, Verdicts: res.verdicts}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	out, err := AppendBinResponse(*buf, resp)
	if err != nil {
		s.writeBinError(w, err)
		return
	}
	*buf = out // retain the grown capacity in the pool
	w.Header().Set("Content-Type", contentTypeBin)
	_, _ = w.Write(out)
}

// writeBinError renders a handler error as a binary error frame with
// the same HTTP status the JSON path would use.
func (s *Server) writeBinError(w http.ResponseWriter, err error) {
	s.metrics.Add(mReqErrors, 1)
	status, retryAfter := errorStatus(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	out := AppendBinError(*buf, status, err.Error())
	*buf = out
	w.Header().Set("Content-Type", contentTypeBin)
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// ---------------------------------------------------------------------------
// Client side

// ClassifyBinary posts one frame to /v1/classify-bin and decodes the
// response frame. Server-rendered errors — binary frames from the
// handler, JSON bodies from the admission middleware — both surface as
// *APIError, so the retry policy treats the binary path exactly like
// the JSON one (shed and shutdown responses retry for every verb).
func (c *Client) ClassifyBinary(ctx context.Context, req *BinClassifyRequest) (*BinClassifyResponse, error) {
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	frame, err := AppendBinRequest(*buf, req)
	if err != nil {
		return nil, err
	}
	*buf = frame
	for attempt := 0; ; attempt++ {
		resp, err := c.binRoundTrip(ctx, frame)
		if err == nil {
			return resp, nil
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

// binRoundTrip performs one binary attempt.
func (c *Client) binRoundTrip(ctx context.Context, frame []byte) (*BinClassifyResponse, error) {
	target, err := c.endpoint("/v1/classify-bin")
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentTypeBin)
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(httpResp.Body, maxBodyBytes+8))
	if err != nil {
		return nil, err
	}
	retryAfter := parseRetryAfter(httpResp.Header.Get("Retry-After"), time.Now())
	if !strings.HasPrefix(httpResp.Header.Get("Content-Type"), contentTypeBin) {
		// The admission middleware (shed, shutdown) answers in JSON.
		apiErr := &APIError{Status: httpResp.StatusCode, RetryAfter: retryAfter}
		var e ErrorResponse
		if json.Unmarshal(blob, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(blob))
		}
		return nil, apiErr
	}
	resp, errFrame, err := DecodeBinResponse(blob)
	if err != nil {
		return nil, err
	}
	if errFrame != nil {
		return nil, &APIError{Status: errFrame.Status, Message: errFrame.Message, RetryAfter: retryAfter}
	}
	return resp, nil
}
