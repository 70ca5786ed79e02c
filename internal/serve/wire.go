package serve

// The wire formats of the detection service.
//
// JSON half: field order in the structs is the serialization order,
// and every response is rendered with encoding/json defaults —
// together with the deterministic simulator this makes responses
// byte-identical across parallelism levels and concurrent load, which
// the golden wire test pins.
//
// Binary half (POST /v1/classify-bin): the opt-in hot-path protocol.
// One frame is a u32 little-endian payload length followed by the
// payload; payloads start with the magic "FSB1" and a kind byte. A
// request carries either a batch of vectors sharing one event layout
// or one trace; a response carries an interned class table and
// fixed-width per-vector verdicts, so neither side pays JSON
// encode/decode or per-verdict string duplication. Encoders append
// into pooled buffers; decoders return typed *FrameError values and
// never panic on garbage (FuzzDecodeFrame pins that). The full layout
// is documented in DESIGN.md §10 and pinned byte-for-byte by
// testdata/classify_bin.golden.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"fsml/internal/core"
	"fsml/internal/lifecycle"
	"fsml/internal/report"
)

// ClassifyRequest is the body of POST /v1/classify. Exactly one of
// Vector or Trace must be set.
type ClassifyRequest struct {
	// Detector is the registry key to classify with ("" = the server's
	// default detector).
	Detector string `json:"detector,omitempty"`
	// Events names the entries of Vector (defaults to the detector's
	// own attribute list, in order).
	Events []string `json:"events,omitempty"`
	// Vector is a normalized event vector: counts per instruction, the
	// paper's feature normalization, parallel to Events.
	Vector []float64 `json:"vector,omitempty"`
	// SuspectEvents marks events of Vector whose counter reads the
	// producer flagged (saturated, stuck, starved). The detector
	// degrades to a partial-subset prediction instead of trusting them.
	SuspectEvents []string `json:"suspect_events,omitempty"`
	// Trace is a memory-access trace file in the internal/trace text
	// format, plain or gzip-compressed (base64-encoded in JSON). The
	// server replays it on the simulated platform, measures it with the
	// emulated PMU, and classifies the measurement.
	Trace []byte `json:"trace,omitempty"`
	// Seed drives trace-replay measurement determinism (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ClassifyResponse is the body of a successful classification.
type ClassifyResponse struct {
	// Class is the predicted label (good / bad-fs / bad-ma).
	Class string `json:"class"`
	// Confidence is the detector's confidence in Class: 1 for a clean
	// full-vector prediction, lower when suspect counter reads degraded
	// the prediction to a partial event subset.
	Confidence float64 `json:"confidence"`
	// Degraded reports that the prediction was computed on a partial
	// event subset (see core.Detector.ClassifyRobust).
	Degraded bool `json:"degraded"`
	// Suspects lists the flagged events behind a degraded prediction.
	Suspects []string `json:"suspects,omitempty"`
	// Detector is the registry key that produced the verdict.
	Detector string `json:"detector"`
	// Seconds is the simulated runtime (trace replays only).
	Seconds float64 `json:"seconds,omitempty"`
	// PerfFormat is the detected perf output format (perf uploads only;
	// see PerfContentType).
	PerfFormat string `json:"perf_format,omitempty"`
	// UnmappedEvents lists perf events the alias table could not map
	// onto the feature space (perf uploads only).
	UnmappedEvents []string `json:"unmapped_events,omitempty"`
	// Pathologies ranks every label the multi-pathology ensemble knows,
	// descending by score (?ensemble=1 requests only). Class and
	// Confidence mirror its top entry.
	Pathologies []core.PathologyScore `json:"pathologies,omitempty"`
}

// ReportRequest is the body of POST /v1/report: a full report.Options
// sweep of a named suite workload.
type ReportRequest struct {
	// Program is the workload name (see `fsml list`).
	Program string `json:"program"`
	// Detector is the registry key ("" = server default).
	Detector string `json:"detector,omitempty"`
	// Threads overrides the sweep's thread grid (default 4/8/12).
	Threads []int `json:"threads,omitempty"`
	// MaxInputs caps the swept input sets (0 = all).
	MaxInputs int `json:"max_inputs,omitempty"`
	// Seed drives sweep determinism (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ReportResponse wraps the assembled report with the detector that
// produced it.
type ReportResponse struct {
	Detector string         `json:"detector"`
	Report   *report.Report `json:"report"`
}

// RegisterRequest is the body of POST /v1/detectors. Exactly one of
// Model or Train must be set.
type RegisterRequest struct {
	// Model is a serialized detector (the `fsml train -o` format). It is
	// registered under its content-hash key.
	Model json.RawMessage `json:"model,omitempty"`
	// Train asks the registry for a lazily trained detector instead;
	// the response key is the canonical train-spec key.
	Train *TrainSpecRequest `json:"train,omitempty"`
}

// TrainSpecRequest mirrors TrainSpec on the wire.
type TrainSpecRequest struct {
	Quick bool   `json:"quick"`
	Seed  uint64 `json:"seed,omitempty"`
}

// RegisterResponse reports where a registration landed.
type RegisterResponse struct {
	// Key is the registry key to use in classify/report requests.
	Key string `json:"key"`
	// Cached reports that the detector was already resident.
	Cached bool `json:"cached"`
	// TrainedOn is the training-set composition, when known.
	TrainedOn map[string]int `json:"trained_on,omitempty"`
}

// DetectorsResponse is the body of GET /v1/detectors.
type DetectorsResponse struct {
	// Detectors lists the resident entries, most recently used first.
	Detectors []DetectorInfo `json:"detectors"`
	// Capacity is the LRU bound.
	Capacity int `json:"capacity"`
	// Disk lists the warm-startable model keys in the registry dir.
	Disk []string `json:"disk,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status    string `json:"status"`
	Detectors int    `json:"detectors"`
	// Version is the serving binary's build version (module version or
	// VCS revision, "devel" when neither is stamped). Fleet probes
	// compare it across peers to flag mixed-version fleets.
	Version string `json:"version,omitempty"`
}

// ReadyResponse is the body of GET /readyz (status 200 when Ready,
// 503 otherwise — liveness stays on /healthz). It separates the three
// not-ready causes so a load balancer's probe and an operator's curl
// read the same story.
type ReadyResponse struct {
	// Ready reports whether this instance should receive traffic.
	Ready bool `json:"ready"`
	// ShuttingDown reports that graceful shutdown has begun: admitted
	// work is draining and new work is rejected with 503.
	ShuttingDown bool `json:"shutting_down"`
	// Overloaded reports that an admission limiter is saturated right
	// now (new classify/report requests are being shed with 429).
	Overloaded bool `json:"overloaded"`
	// InflightClassify / InflightReport / InflightWatch are the
	// admission slots held per endpoint at probe time.
	InflightClassify int `json:"inflight_classify"`
	InflightReport   int `json:"inflight_report"`
	InflightWatch    int `json:"inflight_watch"`
	// OpenBreakers lists train-spec keys whose training circuit is
	// open or probing (training keeps failing; requests fail fast).
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// Detectors is the resident registry size, as on /healthz.
	Detectors int `json:"detectors"`
	// Lifecycle is the self-healing loop's current state ("stable",
	// "drifting", "retraining", "shadowing", "promoting",
	// "rolled-back"; empty when the loop is disabled). Informational:
	// a mid-promotion instance still serves.
	Lifecycle string `json:"lifecycle,omitempty"`
}

// LifecycleResponse is the GET /v1/lifecycle body: whether the
// self-healing loop is running, its live status, and the retained run
// history (ledger entries, newest first).
type LifecycleResponse struct {
	Enabled bool `json:"enabled"`
	// Error reports a loop that failed to construct (the server runs
	// without it).
	Error   string            `json:"error,omitempty"`
	Status  *lifecycle.Status `json:"status,omitempty"`
	History []lifecycle.Run   `json:"history,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Binary classify protocol
//
// Frame layout (all integers little-endian):
//
//	u32 payload length | payload
//
// request payload:
//
//	"FSB1" | u8 kind=1 | u8 mode | str detector |
//	mode 0 (vectors): u16 width | u16 nEvents + events | u16 nSuspects +
//	                  suspect names | u32 nVecs | nVecs*width f64
//	mode 1 (trace):   u64 seed | u32 len + trace bytes
//
// response payload:
//
//	"FSB1" | u8 kind=2 | str detector | u8 nClasses + class table |
//	u16 nSuspects + names | u32 nVerdicts |
//	per verdict: u8 class index | u8 flags (bit0 degraded) |
//	             f64 confidence | f64 seconds
//
// error payload:
//
//	"FSB1" | u8 kind=3 | u16 HTTP status | str message
//
// str is u16 length + UTF-8 bytes. The class table interns every
// distinct verdict once per frame, so a 10k-vector response carries 10k
// single-byte class indices, not 10k copies of "bad-fs".

const (
	binMagic        = "FSB1"
	binKindRequest  = 1
	binKindResponse = 2
	binKindError    = 3

	binModeVectors = 0
	binModeTrace   = 1

	// binFlagDegraded marks a verdict computed on a partial event subset.
	binFlagDegraded = 1

	// Decode bounds: a frame that declares more than these is rejected
	// before any allocation sized by attacker-controlled counts.
	maxBinString  = 1 << 12
	maxBinEvents  = 1 << 12
	maxBinVectors = 1 << 20
)

// FrameError reports a malformed binary frame: truncated, oversized,
// bad magic, or inconsistent counts. It is typed so the server can map
// it to HTTP 400 and the fuzz harness can assert garbage input always
// lands here — never in a panic.
type FrameError struct {
	// Offset is the byte position the decoder was at when it gave up.
	Offset int
	// Msg says what was wrong.
	Msg string
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("serve: bad binary frame at byte %d: %s", e.Offset, e.Msg)
}

// BinClassifyRequest is the binary twin of ClassifyRequest, batched: a
// frame of vectors sharing one event layout, or one trace.
// Exactly one of Vecs or Trace must be set.
type BinClassifyRequest struct {
	// Detector is the registry key ("" = server default).
	Detector string
	// Events names the Width columns of each vector (nil = the
	// detector's own attribute list, in order).
	Events []string
	// Width is the number of values per vector; defaults to len(Events)
	// when events are named.
	Width int
	// Vecs is the row-major batch: n*Width normalized values, vector i
	// occupying Vecs[i*Width:(i+1)*Width].
	Vecs []float64
	// Suspects marks events whose counter reads the producer flagged;
	// it applies to every vector in the frame.
	Suspects []string
	// Trace is a memory-access trace (plain or gzip), as in
	// ClassifyRequest.Trace; mutually exclusive with Vecs.
	Trace []byte
	// Seed drives trace-replay determinism (default 1).
	Seed uint64
}

// NumVecs returns the number of vectors the request carries.
func (r *BinClassifyRequest) NumVecs() int {
	if r.Width <= 0 {
		return 0
	}
	return len(r.Vecs) / r.Width
}

// BinVerdict is one vector's classification inside a binary response.
type BinVerdict struct {
	// Class is the predicted label (interned: verdicts of one response
	// share the class table's strings).
	Class string
	// Confidence and Degraded mirror ClassifyResponse.
	Confidence float64
	Degraded   bool
	// Seconds is the simulated runtime (trace mode only).
	Seconds float64
}

// BinClassifyResponse is the binary twin of ClassifyResponse, one
// verdict per request vector (or a single verdict in trace mode).
type BinClassifyResponse struct {
	// Detector is the registry key that produced the verdicts.
	Detector string
	// Suspects echoes the flagged events behind degraded verdicts.
	Suspects []string
	// Verdicts is parallel to the request's vectors.
	Verdicts []BinVerdict
}

// BinErrorFrame is the binary rendering of an ErrorResponse.
type BinErrorFrame struct {
	// Status is the HTTP status the JSON path would have used.
	Status int
	// Message is the error text.
	Message string
}

// frameBufPool recycles encode buffers across binary requests, so the
// steady-state hot path reuses one grown buffer per goroutine instead
// of allocating a frame-sized slice per call.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// getFrameBuf borrows an empty encode buffer from the pool.
func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

// putFrameBuf returns a buffer, keeping its grown capacity.
func putFrameBuf(b *[]byte) { *b = (*b)[:0]; frameBufPool.Put(b) }

// ---------------------------------------------------------------------------
// Encoding (append-style, so pooled buffers work)

func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendStr(dst []byte, s string) ([]byte, error) {
	if len(s) > maxBinString {
		return nil, &FrameError{Offset: len(dst), Msg: fmt.Sprintf("string of %d bytes exceeds the %d cap", len(s), maxBinString)}
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// finishFrame fills in the u32 length prefix reserved at start.
func finishFrame(dst []byte, start int) ([]byte, error) {
	payload := len(dst) - start - 4
	if payload < 0 || payload > maxBodyBytes {
		return nil, &FrameError{Offset: len(dst), Msg: fmt.Sprintf("payload of %d bytes exceeds the %d cap", payload, maxBodyBytes)}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

// AppendBinRequest encodes a request frame (length prefix included)
// onto dst and returns the extended buffer.
func AppendBinRequest(dst []byte, req *BinClassifyRequest) ([]byte, error) {
	start := len(dst)
	dst = appendU32(dst, 0) // length, patched by finishFrame
	dst = append(dst, binMagic...)
	mode := byte(binModeVectors)
	if len(req.Trace) > 0 {
		mode = binModeTrace
	}
	dst = append(dst, binKindRequest, mode)
	var err error
	if dst, err = appendStr(dst, req.Detector); err != nil {
		return nil, err
	}
	if mode == binModeTrace {
		dst = appendU64(dst, req.Seed)
		if len(req.Trace) > maxBodyBytes {
			return nil, &FrameError{Offset: len(dst), Msg: "trace exceeds the frame cap"}
		}
		dst = appendU32(dst, uint32(len(req.Trace)))
		dst = append(dst, req.Trace...)
		return finishFrame(dst, start)
	}
	width := req.Width
	if width == 0 {
		width = len(req.Events)
	}
	if width <= 0 || width > maxBinEvents {
		return nil, &FrameError{Offset: len(dst), Msg: fmt.Sprintf("vector width %d out of (0, %d]", width, maxBinEvents)}
	}
	if len(req.Events) != 0 && len(req.Events) != width {
		return nil, &FrameError{Offset: len(dst), Msg: fmt.Sprintf("%d events but width %d", len(req.Events), width)}
	}
	n := len(req.Vecs) / width
	if n*width != len(req.Vecs) || n == 0 || n > maxBinVectors {
		return nil, &FrameError{Offset: len(dst), Msg: fmt.Sprintf("%d values is not a non-empty multiple of width %d (or exceeds %d vectors)", len(req.Vecs), width, maxBinVectors)}
	}
	dst = appendU16(dst, uint16(width))
	dst = appendU16(dst, uint16(len(req.Events)))
	for _, e := range req.Events {
		if dst, err = appendStr(dst, e); err != nil {
			return nil, err
		}
	}
	if len(req.Suspects) > maxBinEvents {
		return nil, &FrameError{Offset: len(dst), Msg: "too many suspect events"}
	}
	dst = appendU16(dst, uint16(len(req.Suspects)))
	for _, s := range req.Suspects {
		if dst, err = appendStr(dst, s); err != nil {
			return nil, err
		}
	}
	dst = appendU32(dst, uint32(n))
	for _, v := range req.Vecs {
		dst = appendF64(dst, v)
	}
	return finishFrame(dst, start)
}

// AppendBinResponse encodes a response frame onto dst. The class table
// is built from the verdicts in first-appearance order, so identical
// responses encode to identical bytes.
func AppendBinResponse(dst []byte, resp *BinClassifyResponse) ([]byte, error) {
	start := len(dst)
	dst = appendU32(dst, 0)
	dst = append(dst, binMagic...)
	dst = append(dst, binKindResponse)
	var err error
	if dst, err = appendStr(dst, resp.Detector); err != nil {
		return nil, err
	}
	classIdx := map[string]int{}
	var classes []string
	for _, v := range resp.Verdicts {
		if _, ok := classIdx[v.Class]; !ok {
			classIdx[v.Class] = len(classes)
			classes = append(classes, v.Class)
		}
	}
	if len(classes) > 255 {
		return nil, &FrameError{Offset: len(dst), Msg: fmt.Sprintf("%d distinct classes exceed the u8 table", len(classes))}
	}
	dst = append(dst, byte(len(classes)))
	for _, c := range classes {
		if dst, err = appendStr(dst, c); err != nil {
			return nil, err
		}
	}
	if len(resp.Suspects) > maxBinEvents {
		return nil, &FrameError{Offset: len(dst), Msg: "too many suspect events"}
	}
	dst = appendU16(dst, uint16(len(resp.Suspects)))
	for _, s := range resp.Suspects {
		if dst, err = appendStr(dst, s); err != nil {
			return nil, err
		}
	}
	if len(resp.Verdicts) > maxBinVectors {
		return nil, &FrameError{Offset: len(dst), Msg: "too many verdicts"}
	}
	dst = appendU32(dst, uint32(len(resp.Verdicts)))
	for _, v := range resp.Verdicts {
		flags := byte(0)
		if v.Degraded {
			flags |= binFlagDegraded
		}
		dst = append(dst, byte(classIdx[v.Class]), flags)
		dst = appendF64(dst, v.Confidence)
		dst = appendF64(dst, v.Seconds)
	}
	return finishFrame(dst, start)
}

// AppendBinError encodes an error frame onto dst.
func AppendBinError(dst []byte, status int, msg string) []byte {
	start := len(dst)
	dst = appendU32(dst, 0)
	dst = append(dst, binMagic...)
	dst = append(dst, binKindError)
	dst = appendU16(dst, uint16(status))
	if len(msg) > maxBinString {
		msg = msg[:maxBinString]
	}
	dst, _ = appendStr(dst, msg)
	dst, _ = finishFrame(dst, start)
	return dst
}

// ---------------------------------------------------------------------------
// Decoding (bounds-checked; all failures are *FrameError, never panics)

// frameReader walks a frame with explicit bounds checks.
type frameReader struct {
	data []byte
	at   int
}

func (r *frameReader) fail(format string, args ...any) error {
	return &FrameError{Offset: r.at, Msg: fmt.Sprintf(format, args...)}
}

func (r *frameReader) take(n int) ([]byte, error) {
	if n < 0 || r.at+n > len(r.data) {
		return nil, r.fail("need %d more bytes, have %d", n, len(r.data)-r.at)
	}
	b := r.data[r.at : r.at+n]
	r.at += n
	return b, nil
}

func (r *frameReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *frameReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *frameReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *frameReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *frameReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *frameReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxBinString {
		return "", r.fail("string of %d bytes exceeds the %d cap", n, maxBinString)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// openFrame validates the length prefix, magic, and expected kind, and
// returns a reader positioned after the kind byte. Trailing bytes
// beyond the declared payload are an error: frames are exact.
func openFrame(frame []byte, wantKind byte) (*frameReader, byte, error) {
	r := &frameReader{data: frame}
	n, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if int64(n) != int64(len(frame)-4) {
		return nil, 0, r.fail("declared payload %d bytes, frame carries %d", n, len(frame)-4)
	}
	if int(n) > maxBodyBytes {
		return nil, 0, r.fail("payload of %d bytes exceeds the %d cap", n, maxBodyBytes)
	}
	magic, err := r.take(4)
	if err != nil {
		return nil, 0, err
	}
	if string(magic) != binMagic {
		return nil, 0, r.fail("bad magic %q, want %q", magic, binMagic)
	}
	kind, err := r.u8()
	if err != nil {
		return nil, 0, err
	}
	if wantKind != 0 && kind != wantKind {
		return nil, 0, r.fail("frame kind %d, want %d", kind, wantKind)
	}
	return r, kind, nil
}

// PeekBinDetector reads just the detector key out of a request frame,
// without touching the vector or trace payload behind it. The fleet
// coordinator uses it to pick a shard for a frame it then relays
// verbatim; malformed frames yield the same *FrameError a full decode
// would.
func PeekBinDetector(frame []byte) (string, error) {
	r, _, err := openFrame(frame, binKindRequest)
	if err != nil {
		return "", err
	}
	if _, err := r.u8(); err != nil { // mode byte
		return "", err
	}
	return r.str()
}

// DecodeBinRequest parses one request frame (length prefix included).
func DecodeBinRequest(frame []byte) (*BinClassifyRequest, error) {
	r, _, err := openFrame(frame, binKindRequest)
	if err != nil {
		return nil, err
	}
	mode, err := r.u8()
	if err != nil {
		return nil, err
	}
	req := &BinClassifyRequest{}
	if req.Detector, err = r.str(); err != nil {
		return nil, err
	}
	switch mode {
	case binModeTrace:
		if req.Seed, err = r.u64(); err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		blob, err := r.take(int(n))
		if err != nil {
			return nil, err
		}
		req.Trace = append([]byte(nil), blob...)
	case binModeVectors:
		width, err := r.u16()
		if err != nil {
			return nil, err
		}
		if width == 0 || int(width) > maxBinEvents {
			return nil, r.fail("vector width %d out of (0, %d]", width, maxBinEvents)
		}
		req.Width = int(width)
		nEvents, err := r.u16()
		if err != nil {
			return nil, err
		}
		if nEvents != 0 && nEvents != width {
			return nil, r.fail("%d events but width %d", nEvents, width)
		}
		for i := 0; i < int(nEvents); i++ {
			e, err := r.str()
			if err != nil {
				return nil, err
			}
			req.Events = append(req.Events, e)
		}
		nSuspects, err := r.u16()
		if err != nil {
			return nil, err
		}
		if int(nSuspects) > maxBinEvents {
			return nil, r.fail("%d suspects exceed the %d cap", nSuspects, maxBinEvents)
		}
		for i := 0; i < int(nSuspects); i++ {
			s, err := r.str()
			if err != nil {
				return nil, err
			}
			req.Suspects = append(req.Suspects, s)
		}
		nVecs, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nVecs == 0 || int64(nVecs) > maxBinVectors {
			return nil, r.fail("%d vectors out of (0, %d]", nVecs, maxBinVectors)
		}
		// Bound the allocation by what the frame actually carries before
		// trusting the declared count.
		need := int64(nVecs) * int64(width) * 8
		if need > int64(len(r.data)-r.at) {
			return nil, r.fail("%d vectors x width %d need %d bytes, frame has %d left", nVecs, width, need, len(r.data)-r.at)
		}
		req.Vecs = make([]float64, int(nVecs)*int(width))
		for i := range req.Vecs {
			if req.Vecs[i], err = r.f64(); err != nil {
				return nil, err
			}
		}
	default:
		return nil, r.fail("unknown request mode %d", mode)
	}
	if r.at != len(r.data) {
		return nil, r.fail("%d trailing bytes after the payload", len(r.data)-r.at)
	}
	return req, nil
}

// DecodeBinResponse parses one response frame: a verdict batch, or the
// protocol's error rendering (returned as errFrame, not as err — a
// served error is data to the caller, a malformed frame is not).
func DecodeBinResponse(frame []byte) (resp *BinClassifyResponse, errFrame *BinErrorFrame, err error) {
	r, kind, err := openFrame(frame, 0)
	if err != nil {
		return nil, nil, err
	}
	switch kind {
	case binKindError:
		status, err := r.u16()
		if err != nil {
			return nil, nil, err
		}
		msg, err := r.str()
		if err != nil {
			return nil, nil, err
		}
		if r.at != len(r.data) {
			return nil, nil, r.fail("%d trailing bytes after the payload", len(r.data)-r.at)
		}
		return nil, &BinErrorFrame{Status: int(status), Message: msg}, nil
	case binKindResponse:
		resp = &BinClassifyResponse{}
		if resp.Detector, err = r.str(); err != nil {
			return nil, nil, err
		}
		nClasses, err := r.u8()
		if err != nil {
			return nil, nil, err
		}
		classes := make([]string, nClasses)
		for i := range classes {
			if classes[i], err = r.str(); err != nil {
				return nil, nil, err
			}
		}
		nSuspects, err := r.u16()
		if err != nil {
			return nil, nil, err
		}
		if int(nSuspects) > maxBinEvents {
			return nil, nil, r.fail("%d suspects exceed the %d cap", nSuspects, maxBinEvents)
		}
		for i := 0; i < int(nSuspects); i++ {
			s, err := r.str()
			if err != nil {
				return nil, nil, err
			}
			resp.Suspects = append(resp.Suspects, s)
		}
		nVerdicts, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		if int64(nVerdicts) > maxBinVectors {
			return nil, nil, r.fail("%d verdicts exceed the %d cap", nVerdicts, maxBinVectors)
		}
		const verdictBytes = 2 + 8 + 8
		if int64(nVerdicts)*verdictBytes > int64(len(r.data)-r.at) {
			return nil, nil, r.fail("%d verdicts need %d bytes, frame has %d left", nVerdicts, int64(nVerdicts)*verdictBytes, len(r.data)-r.at)
		}
		resp.Verdicts = make([]BinVerdict, nVerdicts)
		for i := range resp.Verdicts {
			ci, err := r.u8()
			if err != nil {
				return nil, nil, err
			}
			if int(ci) >= len(classes) {
				return nil, nil, r.fail("verdict %d names class %d of a %d-entry table", i, ci, len(classes))
			}
			flags, err := r.u8()
			if err != nil {
				return nil, nil, err
			}
			conf, err := r.f64()
			if err != nil {
				return nil, nil, err
			}
			sec, err := r.f64()
			if err != nil {
				return nil, nil, err
			}
			resp.Verdicts[i] = BinVerdict{
				Class:      classes[ci],
				Confidence: conf,
				Degraded:   flags&binFlagDegraded != 0,
				Seconds:    sec,
			}
		}
		if r.at != len(r.data) {
			return nil, nil, r.fail("%d trailing bytes after the payload", len(r.data)-r.at)
		}
		return resp, nil, nil
	default:
		return nil, nil, r.fail("unknown response kind %d", kind)
	}
}
