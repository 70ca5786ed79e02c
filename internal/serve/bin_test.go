package serve

// Tests of the binary classify protocol: a codec round trip, the golden
// frame pin, JSON-vs-binary verdict equivalence across server configs,
// the error frame status mapping, and a fuzzer asserting garbage frames
// always come back as typed *FrameError — never a panic. The golden
// file holds the exact request frame followed by the exact response
// frame of the canonical degraded request, so any byte-level drift in
// the protocol fails the suite.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// binVectorRequest mirrors vectorRequest for the binary protocol.
func binVectorRequest(i int) *BinClassifyRequest {
	jr := vectorRequest(i)
	return &BinClassifyRequest{
		Events:   jr.Events,
		Width:    len(jr.Events),
		Vecs:     jr.Vector,
		Suspects: jr.SuspectEvents,
	}
}

// TestBinCodecRoundTrip pushes representative requests and responses
// through encode+decode and asserts structural equality.
func TestBinCodecRoundTrip(t *testing.T) {
	reqs := []*BinClassifyRequest{
		{Width: 2, Vecs: []float64{0.52, 0.06}},
		{Detector: "train:quick=true,seed=1", Events: []string{attrHITM, attrMiss}, Width: 2,
			Vecs: []float64{0.52, 0.06, 0.01, 0.64, 0.01, 0.03}, Suspects: []string{attrHITM}},
		{Trace: []byte("T0 S 0x1000 x8\nT0 E 40\n"), Seed: 7},
	}
	for i, req := range reqs {
		frame, err := AppendBinRequest(nil, req)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		got, err := DecodeBinRequest(frame)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if got.Detector != req.Detector || got.Seed != req.Seed ||
			!bytes.Equal(got.Trace, req.Trace) ||
			fmt.Sprint(got.Events) != fmt.Sprint(req.Events) ||
			fmt.Sprint(got.Suspects) != fmt.Sprint(req.Suspects) ||
			fmt.Sprint(got.Vecs) != fmt.Sprint(req.Vecs) {
			t.Errorf("req %d: round trip drifted:\ngot  %+v\nwant %+v", i, got, req)
		}
	}

	resp := &BinClassifyResponse{
		Detector: "train:quick=true,seed=1",
		Suspects: []string{attrHITM},
		Verdicts: []BinVerdict{
			{Class: "bad-fs", Confidence: 0.75, Degraded: true},
			{Class: "good", Confidence: 1},
			{Class: "bad-fs", Confidence: 0.5, Degraded: true, Seconds: 1.25e-6},
		},
	}
	frame, err := AppendBinResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, errFrame, err := DecodeBinResponse(frame)
	if err != nil || errFrame != nil {
		t.Fatalf("decode: resp=%v errFrame=%v err=%v", got, errFrame, err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", resp) {
		t.Errorf("response round trip drifted:\ngot  %+v\nwant %+v", got, resp)
	}

	errOut := AppendBinError(nil, http.StatusNotFound, "serve: unknown detector")
	r2, ef, err := DecodeBinResponse(errOut)
	if err != nil || r2 != nil {
		t.Fatalf("error frame decode: resp=%v err=%v", r2, err)
	}
	if ef.Status != http.StatusNotFound || ef.Message != "serve: unknown detector" {
		t.Errorf("error frame drifted: %+v", ef)
	}
}

// TestClassifyBinGoldenWire pins both directions of the binary protocol
// byte for byte: the canonical degraded request's frame and the
// response frame it produces, identical across parallelism
// configs, against testdata/classify_bin.golden. Regenerate with:
// go test ./internal/serve -run TestClassifyBinGoldenWire -update
func TestClassifyBinGoldenWire(t *testing.T) {
	req := &BinClassifyRequest{
		Events:   []string{attrHITM, attrMiss},
		Width:    2,
		Vecs:     []float64{0.52, 0.06},
		Suspects: []string{attrHITM},
	}
	reqFrame, err := AppendBinRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{{Parallelism: 1}, {Parallelism: 8}}
	var bodies [][]byte
	for _, cfg := range configs {
		_, client := newTestServer(t, cfg)
		resp, err := http.Post(client.BaseURL+"/v1/classify-bin", contentTypeBin, bytes.NewReader(reqFrame))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %x", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != contentTypeBin {
			t.Fatalf("Content-Type = %q, want %q", ct, contentTypeBin)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("response frames differ across configs:\n%x\nvs\n%x", bodies[0], bodies[1])
	}

	blob := append(append([]byte(nil), reqFrame...), bodies[0]...)
	golden := filepath.Join("testdata", "classify_bin.golden")
	if *update {
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("binary wire format drifted from golden:\ngot:\n%x\nwant:\n%x", blob, want)
	}

	// The pinned response must actually exercise the degraded fields.
	parsed, errFrame, err := DecodeBinResponse(bodies[0])
	if err != nil || errFrame != nil {
		t.Fatalf("decode: errFrame=%v err=%v", errFrame, err)
	}
	if len(parsed.Verdicts) != 1 {
		t.Fatalf("verdicts = %d, want 1", len(parsed.Verdicts))
	}
	v := parsed.Verdicts[0]
	if !v.Degraded || v.Confidence >= 1 || len(parsed.Suspects) != 1 {
		t.Errorf("golden response is not a degraded verdict: %+v", parsed)
	}
}

// TestClassifyBinMatchesJSON asserts the binary endpoint returns the
// same verdicts as /v1/classify for identical inputs — clean vectors,
// degraded vectors, defaulted event names, multi-vector frames, and a
// trace — across parallelism configs.
func TestClassifyBinMatchesJSON(t *testing.T) {
	var tr strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&tr, "T0 S 0x1000 x8\nT0 E 40\nT1 S 0x1008 x8\nT1 E 40\n")
	}
	for _, cfg := range []Config{{Parallelism: 1}, {Parallelism: 8}} {
		_, client := newTestServer(t, cfg)
		ctx := context.Background()

		// 24 mixed single-vector requests through both endpoints.
		for i := 0; i < 24; i++ {
			jr := vectorRequest(i)
			want, err := client.Classify(ctx, jr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.ClassifyBinary(ctx, binVectorRequest(i))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Verdicts) != 1 {
				t.Fatalf("req %d: %d verdicts, want 1", i, len(got.Verdicts))
			}
			v := got.Verdicts[0]
			if v.Class != want.Class || v.Confidence != want.Confidence || v.Degraded != want.Degraded ||
				fmt.Sprint(got.Suspects) != fmt.Sprint(want.Suspects) {
				t.Errorf("req %d: binary %+v (suspects %v) != JSON %+v", i, v, got.Suspects, want)
			}
		}

		// One frame carrying the same 24 clean vectors (no suspects: the
		// columnar fast path) with defaulted event names.
		var vecs []float64
		var wantClasses []string
		for i := 0; i < 24; i++ {
			jr := vectorRequest(i)
			jr.SuspectEvents = nil
			vecs = append(vecs, jr.Vector...)
			want, err := client.Classify(ctx, jr)
			if err != nil {
				t.Fatal(err)
			}
			wantClasses = append(wantClasses, want.Class)
		}
		got, err := client.ClassifyBinary(ctx, &BinClassifyRequest{Width: 2, Vecs: vecs})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Verdicts) != 24 {
			t.Fatalf("%d verdicts, want 24", len(got.Verdicts))
		}
		for i, v := range got.Verdicts {
			if v.Class != wantClasses[i] || v.Confidence != 1 || v.Degraded {
				t.Errorf("frame vector %d: %+v, want clean %q", i, v, wantClasses[i])
			}
		}

		// Trace mode agrees with the JSON trace path, seconds included.
		want, err := client.Classify(ctx, ClassifyRequest{Trace: []byte(tr.String()), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		gotTr, err := client.ClassifyBinary(ctx, &BinClassifyRequest{Trace: []byte(tr.String()), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTr.Verdicts) != 1 {
			t.Fatalf("trace: %d verdicts, want 1", len(gotTr.Verdicts))
		}
		v := gotTr.Verdicts[0]
		if v.Class != want.Class || v.Confidence != want.Confidence || v.Seconds != want.Seconds {
			t.Errorf("trace: binary %+v != JSON %+v", v, want)
		}
	}
}

// TestClassifyBinErrors pins the binary error mapping: handler errors
// come back as binary error frames with the JSON path's status, and the
// client folds them into *APIError.
func TestClassifyBinErrors(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()

	cases := []struct {
		name   string
		req    *BinClassifyRequest
		status int
	}{
		{"unknown detector", &BinClassifyRequest{Detector: "nope", Width: 2, Vecs: []float64{1, 2}}, http.StatusNotFound},
		{"unknown event", &BinClassifyRequest{Events: []string{"EV_NOPE", attrMiss}, Width: 2, Vecs: []float64{1, 2}}, http.StatusBadRequest},
		{"width mismatch", &BinClassifyRequest{Width: 3, Vecs: []float64{1, 2, 3}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := client.ClassifyBinary(ctx, tc.req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: err = %v, want *APIError", tc.name, err)
		}
		if apiErr.Status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, apiErr.Status, tc.status, apiErr.Message)
		}
	}

	// A malformed frame straight at the endpoint: 400, binary error frame.
	resp, err := http.Post(client.BaseURL+"/v1/classify-bin", contentTypeBin, strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: status %d, want 400", resp.StatusCode)
	}
	_, errFrame, err := DecodeBinResponse(body)
	if err != nil || errFrame == nil {
		t.Fatalf("garbage frame: body is not an error frame (errFrame=%v err=%v)", errFrame, err)
	}
	if errFrame.Status != http.StatusBadRequest {
		t.Errorf("error frame status %d, want 400", errFrame.Status)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at both decoders and asserts
// they never panic and fail only with *FrameError. Seeded with valid
// frames so mutation explores near-valid space.
func FuzzDecodeFrame(f *testing.F) {
	reqFrame, err := AppendBinRequest(nil, &BinClassifyRequest{
		Events: []string{attrHITM, attrMiss}, Width: 2,
		Vecs: []float64{0.52, 0.06}, Suspects: []string{attrHITM},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reqFrame)
	trFrame, err := AppendBinRequest(nil, &BinClassifyRequest{Trace: []byte("T0 S 0x1000 x8\n"), Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trFrame)
	respFrame, err := AppendBinResponse(nil, &BinClassifyResponse{
		Detector: "k", Suspects: []string{attrHITM},
		Verdicts: []BinVerdict{{Class: "bad-fs", Confidence: 0.75, Degraded: true}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(respFrame)
	f.Add(AppendBinError(nil, 404, "nope"))
	f.Add([]byte{})
	f.Add([]byte("FSB1"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := DecodeBinRequest(frame)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("DecodeBinRequest: non-FrameError failure %T: %v", err, err)
			}
			if req != nil {
				t.Fatal("DecodeBinRequest returned a request AND an error")
			}
		} else if req == nil {
			t.Fatal("DecodeBinRequest returned neither request nor error")
		} else if len(req.Trace) == 0 {
			// Decoded vector requests always satisfy the shape invariants
			// the handler relies on.
			if req.Width <= 0 || len(req.Vecs)%req.Width != 0 || req.NumVecs() == 0 {
				t.Fatalf("decoded request violates shape invariants: %+v", req)
			}
			if len(req.Events) != 0 && len(req.Events) != req.Width {
				t.Fatalf("decoded request has %d events for width %d", len(req.Events), req.Width)
			}
		}

		resp, errFrame, err := DecodeBinResponse(frame)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("DecodeBinResponse: non-FrameError failure %T: %v", err, err)
			}
			if resp != nil || errFrame != nil {
				t.Fatal("DecodeBinResponse returned data AND an error")
			}
		}
	})
}

// TestBinFrameCaps asserts oversized declarations are rejected without
// allocating what they claim.
func TestBinFrameCaps(t *testing.T) {
	// A request frame whose vector count claims far more data than the
	// frame carries.
	frame, err := AppendBinRequest(nil, &BinClassifyRequest{Width: 2, Vecs: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Patch the u32 vector count (last 4+16 bytes from the end: count
	// sits before the 2 f64 values).
	countOff := len(frame) - 16 - 4
	frame[countOff] = 0xff
	frame[countOff+1] = 0xff
	frame[countOff+2] = 0x0f
	var fe *FrameError
	if _, err := DecodeBinRequest(frame); !errors.As(err, &fe) {
		t.Fatalf("inflated vector count: err = %v, want *FrameError", err)
	}

	// Encoding an over-cap request fails up front.
	if _, err := AppendBinRequest(nil, &BinClassifyRequest{Width: 1, Vecs: make([]float64, maxBinVectors+1)}); !errors.As(err, &fe) {
		t.Fatalf("oversized encode: err = %v, want *FrameError", err)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks

// BenchmarkServeClassifyBin measures binary round trips: one vector per
// frame (protocol overhead vs JSON) and 64 vectors per frame (the
// amortized hot path). Compare against BenchmarkServeClassify; divide
// frame64 ns/op by 64 for per-vector cost.
func BenchmarkServeClassifyBin(b *testing.B) {
	for _, bc := range []struct {
		name    string
		perCall int
	}{
		{"frame1", 1},
		{"frame64", 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, client := newTestServer(b, Config{})
			var vecs []float64
			for i := 0; i < bc.perCall; i++ {
				jr := vectorRequest(i)
				vecs = append(vecs, jr.Vector...)
			}
			req := &BinClassifyRequest{Width: 2, Vecs: vecs}
			if _, err := client.ClassifyBinary(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := client.ClassifyBinary(context.Background(), req); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
