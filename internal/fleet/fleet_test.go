package fleet

// Integration tests of the coordinator against real serve.Server
// backends on loopback listeners — real listeners (not httptest) so
// tests can kill a backend and the chaos test can restart one on the
// same address.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/serve"
)

// Attribute names of the tiny test detector (the serve test idiom).
const (
	attrHITM = "SNOOP_RESPONSE.HITM"
	attrMiss = "L2_RQSTS.LD_MISS"
)

// tinyDetector hand-builds a deterministic two-attribute detector:
// high HITM -> bad-fs, high miss rate -> bad-ma, both low -> good.
func tinyDetector(t testing.TB) *core.Detector {
	t.Helper()
	d := dataset.New([]string{attrHITM, attrMiss})
	add := func(label string, hitm, miss float64) {
		if err := d.Add(dataset.Instance{Features: []float64{hitm, miss}, Label: label}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		f := float64(i) * 0.01
		add("bad-fs", 0.50+f, 0.05+f/2)
		add("bad-ma", 0.01+f/10, 0.60+f)
		add("good", 0.01+f/10, 0.02+f/10)
	}
	det, err := core.TrainDetector(d)
	if err != nil {
		t.Fatalf("training tiny detector: %v", err)
	}
	return det
}

// startBackend starts a detection server on a real listener (addr "" =
// ephemeral port) with an instant trainer and admission control off.
func startBackend(t testing.TB, addr string) *serve.Server {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	det := tinyDetector(t)
	s := serve.New(serve.Config{
		Addr:        addr,
		MaxInflight: -1,
		Train:       func(serve.TrainSpec) (*core.Detector, error) { return det, nil },
	})
	if err := s.Start(); err != nil {
		t.Fatalf("starting backend: %v", err)
	}
	t.Cleanup(func() { stopServer(s) })
	return s
}

func stopServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

func backendURL(s *serve.Server) string { return "http://" + s.Addr() }

// startFleet builds and starts a coordinator on an ephemeral port.
func startFleet(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("building coordinator: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fleetReady fetches the coordinator's aggregated readiness, accepting
// both 200 and 503 (the body is data either way).
func fleetReady(t testing.TB, c *Coordinator) ReadyResponse {
	t.Helper()
	resp, err := http.Get("http://" + c.Addr() + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var out ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /readyz: %v", err)
	}
	return out
}

// fleetDetectors fetches the coordinator's merged registry listing.
func fleetDetectors(t testing.TB, c *Coordinator) DetectorsResponse {
	t.Helper()
	resp, err := http.Get("http://" + c.Addr() + "/v1/detectors")
	if err != nil {
		t.Fatalf("GET /v1/detectors: %v", err)
	}
	defer resp.Body.Close()
	var out DetectorsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /v1/detectors: %v", err)
	}
	return out
}

// classifyRaw posts one vector classification through the coordinator
// with explicit headers, returning the response and decoded body.
func classifyRaw(t testing.TB, c *Coordinator, requestID string) (*http.Response, serve.ClassifyResponse) {
	t.Helper()
	body, err := json.Marshal(serve.ClassifyRequest{
		Events: []string{attrHITM, attrMiss},
		Vector: []float64{0.55, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+c.Addr()+"/v1/classify", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(serve.RequestIDHeader, requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("classify through coordinator: %v", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out serve.ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatalf("decoding classify response: %v (body %s)", err, blob)
		}
	} else {
		t.Fatalf("classify through coordinator: %d: %s", resp.StatusCode, blob)
	}
	return resp, out
}

// TestFleetRoutesToOwner pins the sharding property: with the whole
// fleet live, a key's requests land on its ring owner, consistently.
func TestFleetRoutesToOwner(t *testing.T) {
	var peers []string
	for i := 0; i < 3; i++ {
		peers = append(peers, backendURL(startBackend(t, "")))
	}
	c := startFleet(t, Config{Peers: peers, ProbeInterval: time.Hour})
	owner := c.PeerFor(c.cfg.DefaultDetector)
	for i := 0; i < 5; i++ {
		resp, out := classifyRaw(t, c, "")
		if got := resp.Header.Get(PeerHeader); got != owner {
			t.Fatalf("request %d served by %s, want the ring owner %s", i, got, owner)
		}
		if out.Class != "bad-fs" {
			t.Fatalf("request %d class = %q, want bad-fs", i, out.Class)
		}
		if resp.Header.Get(serve.RequestIDHeader) == "" {
			t.Fatal("coordinator minted no request ID")
		}
	}
	if got := c.Metrics().Counter(mRoutes); got != 5 {
		t.Errorf("routes counter = %d, want 5", got)
	}
}

// TestFleetFailoverPreservesRequestID kills a key's owner and checks
// the request still answers from the next successor, carrying the SAME
// caller-chosen correlation ID across both hops — the property that
// makes a failover debuggable.
func TestFleetFailoverPreservesRequestID(t *testing.T) {
	backends := map[string]*serve.Server{}
	var peers []string
	for i := 0; i < 3; i++ {
		b := startBackend(t, "")
		backends[backendURL(b)] = b
		peers = append(peers, backendURL(b))
	}
	c := startFleet(t, Config{Peers: peers, ProbeInterval: time.Hour})
	key := c.cfg.DefaultDetector
	owner := c.PeerFor(key)
	stopServer(backends[owner]) // probe loop won't notice for an hour
	const id = "corr-test-0001"
	resp, out := classifyRaw(t, c, id)
	if out.Class != "bad-fs" {
		t.Fatalf("failover verdict = %q, want bad-fs", out.Class)
	}
	if got := resp.Header.Get(serve.RequestIDHeader); got != id {
		t.Errorf("request ID = %q after failover, want %q", got, id)
	}
	served := resp.Header.Get(PeerHeader)
	if served == owner {
		t.Errorf("served by the killed owner %s", served)
	}
	succ := c.Ring().Successors(key, 3)
	if len(succ) < 2 || served != succ[1] {
		t.Errorf("served by %s, want the next successor %s (chain %v)", served, succ[1], succ)
	}
	if got := c.Metrics().Counter(mFailovers); got == 0 {
		t.Error("failover counter = 0 after a failover")
	}
}

// TestFleetReplicatesAndRebalances uploads a model through the
// coordinator, checks it lands on exactly Replicas ring successors,
// kills one holder, and waits for the rebalancer to heal the replica
// set onto the next live successor.
func TestFleetReplicatesAndRebalances(t *testing.T) {
	backends := map[string]*serve.Server{}
	var peers []string
	for i := 0; i < 3; i++ {
		b := startBackend(t, "")
		backends[backendURL(b)] = b
		peers = append(peers, backendURL(b))
	}
	c := startFleet(t, Config{Peers: peers, Replicas: 2, ProbeInterval: 25 * time.Millisecond, BreakerCooldown: 100 * time.Millisecond})
	model, err := tinyDetector(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	client := serve.NewClient("http://" + c.Addr())
	reg, err := client.RegisterDetector(context.Background(), model)
	if err != nil {
		t.Fatalf("registering through coordinator: %v", err)
	}
	wantKey, err := serve.ModelKey(model)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Key != wantKey {
		t.Fatalf("register key = %q, want the content key %q", reg.Key, wantKey)
	}
	wantHolders := c.Ring().Successors(wantKey, 2)
	list := fleetDetectors(t, c)
	holders := list.Detectors[wantKey]
	if len(holders) != 2 {
		t.Fatalf("model on %v, want exactly the 2 successors %v", holders, wantHolders)
	}
	for _, h := range wantHolders {
		if !contains(holders, h) {
			t.Fatalf("model on %v, want the successors %v", holders, wantHolders)
		}
	}

	// Kill one holder; the prober notices, the rebalancer re-uploads to
	// the next live successor, and the fleet is back at 2 replicas.
	stopServer(backends[wantHolders[0]])
	waitFor(t, 10*time.Second, "replica set to heal", func() bool {
		list := fleetDetectors(t, c)
		live := 0
		for _, h := range list.Detectors[wantKey] {
			if h != wantHolders[0] {
				live++
			}
		}
		return live >= 2
	})
	if got := c.Metrics().Counter(mRebalanced); got == 0 {
		t.Error("rebalanced counter = 0 after healing")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestFleetReadyAggregatesPeerHealth exercises the degraded-readyz
// path: peer versions surface, a killed peer flips to not-live with
// its breaker open, and the coordinator stays ready while any peer
// lives.
func TestFleetReadyAggregatesPeerHealth(t *testing.T) {
	b1 := startBackend(t, "")
	b2 := startBackend(t, "")
	c := startFleet(t, Config{
		Peers:           []string{backendURL(b1), backendURL(b2)},
		ProbeInterval:   25 * time.Millisecond,
		BreakerCooldown: time.Hour, // once open, only liveness flips it back — not in this test
	})
	rr := fleetReady(t, c)
	if !rr.Ready || rr.LivePeers != 2 || rr.MixedVersions {
		t.Fatalf("initial readiness = %+v, want ready with 2 live peers", rr)
	}
	for _, p := range rr.Peers {
		if p.Version == "" {
			t.Errorf("peer %s reports no version", p.URL)
		}
		if !p.Live || !p.Ready {
			t.Errorf("peer %s = %+v, want live and ready", p.URL, p)
		}
	}
	stopServer(b2)
	waitFor(t, 10*time.Second, "peer loss to surface", func() bool {
		return fleetReady(t, c).LivePeers == 1
	})
	rr = fleetReady(t, c)
	if !rr.Ready {
		t.Error("coordinator not ready though one peer still lives")
	}
	for _, p := range rr.Peers {
		if p.URL == backendURL(b2) {
			if p.Live {
				t.Error("killed peer still reported live")
			}
			if p.LastError == "" {
				t.Error("killed peer carries no probe error")
			}
		}
	}
	stopServer(b1)
	waitFor(t, 10*time.Second, "total outage to surface", func() bool {
		return !fleetReady(t, c).Ready
	})
	resp, err := http.Get("http://" + c.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("total-outage /readyz status = %d, want 503", resp.StatusCode)
	}
}

// TestFleetSmoke is the `make fleet-smoke` leg: a coordinator over two
// backends answers a classify, keeps answering after one backend dies,
// and exposes fleet metrics.
func TestFleetSmoke(t *testing.T) {
	backends := map[string]*serve.Server{}
	var peers []string
	for i := 0; i < 2; i++ {
		b := startBackend(t, "")
		backends[backendURL(b)] = b
		peers = append(peers, backendURL(b))
	}
	c := startFleet(t, Config{Peers: peers, ProbeInterval: 25 * time.Millisecond, BreakerCooldown: 100 * time.Millisecond})
	_, out := classifyRaw(t, c, "")
	if out.Class != "bad-fs" {
		t.Fatalf("class = %q, want bad-fs", out.Class)
	}
	// Kill the default key's owner: the worst case for routing.
	stopServer(backends[c.PeerFor(c.cfg.DefaultDetector)])
	_, out = classifyRaw(t, c, "")
	if out.Class != "bad-fs" {
		t.Fatalf("class after node loss = %q, want bad-fs", out.Class)
	}
	mt, err := serve.NewClient("http://" + c.Addr()).MetricsText(context.Background())
	if err != nil {
		t.Fatalf("scraping coordinator metrics: %v", err)
	}
	for _, want := range []string{mRoutes, mFailovers, gRingSize, "fsml_fleet_peer_up{peer="} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestFleetNoLivePeers pins the total-outage answer: a 503 the
// serve.Client retry policy recognizes as safe to retry.
func TestFleetNoLivePeers(t *testing.T) {
	b := startBackend(t, "")
	c := startFleet(t, Config{Peers: []string{backendURL(b)}, ProbeInterval: 25 * time.Millisecond})
	stopServer(b)
	waitFor(t, 10*time.Second, "outage to surface", func() bool {
		return fleetReady(t, c).LivePeers == 0
	})
	client := serve.NewClient("http://" + c.Addr())
	_, err := client.Classify(context.Background(), serve.ClassifyRequest{
		Events: []string{attrHITM, attrMiss},
		Vector: []float64{0.55, 0.05},
	})
	apiErr, ok := err.(*serve.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("total outage error = %v, want a 503 APIError", err)
	}
}

// TestFleetRoutesBinAndWatch routes the binary protocol and the SSE
// watch stream through the coordinator: classify-bin verdicts match
// the JSON path, and a watch session streams from a backend with the
// peer header set.
func TestFleetRoutesBinAndWatch(t *testing.T) {
	var peers []string
	for i := 0; i < 2; i++ {
		peers = append(peers, backendURL(startBackend(t, "")))
	}
	c := startFleet(t, Config{Peers: peers, ProbeInterval: time.Hour})
	client := serve.NewClient("http://" + c.Addr())

	out, err := client.ClassifyBinary(context.Background(), &serve.BinClassifyRequest{
		Events: []string{attrHITM, attrMiss},
		Width:  2,
		Vecs:   []float64{0.55, 0.05, 0.01, 0.65},
	})
	if err != nil {
		t.Fatalf("classify-bin through coordinator: %v", err)
	}
	if len(out.Verdicts) != 2 || out.Verdicts[0].Class != "bad-fs" || out.Verdicts[1].Class != "bad-ma" {
		t.Fatalf("bin verdicts = %+v, want [bad-fs bad-ma]", out.Verdicts)
	}

	req, err := http.NewRequest(http.MethodGet,
		"http://"+c.Addr()+"/v1/watch?threads=2&iters=500&slice_rounds=100", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("watch through coordinator: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch status = %d: %s", resp.StatusCode, blob)
	}
	if resp.Header.Get(PeerHeader) == "" {
		t.Error("watch response names no peer")
	}
	// One SSE line is proof the stream flows end to end.
	buf := make([]byte, 1<<12)
	n, err := resp.Body.Read(buf)
	if n == 0 && err != nil {
		t.Fatalf("watch stream yielded nothing: %v", err)
	}
	if !strings.Contains(string(buf[:n]), "event:") {
		t.Errorf("watch stream start = %q, want SSE events", buf[:n])
	}
}

// TestRegisterKeyDerivation pins the coordinator-side keying against
// the backend's: train specs and content hashes, and the two error
// shapes.
func TestRegisterKeyDerivation(t *testing.T) {
	model, err := tinyDetector(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantContent, err := serve.ModelKey(model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := registerKey(serve.RegisterRequest{Model: model})
	if err != nil || got != wantContent {
		t.Errorf("model key = (%q, %v), want %q", got, err, wantContent)
	}
	got, err = registerKey(serve.RegisterRequest{Train: &serve.TrainSpecRequest{Quick: true, Seed: 7}})
	if want := (serve.TrainSpec{Quick: true, Seed: 7}).Key(); err != nil || got != want {
		t.Errorf("train key = (%q, %v), want %q", got, err, want)
	}
	if _, err := registerKey(serve.RegisterRequest{}); err == nil {
		t.Error("empty register derived a key")
	}
	if _, err := registerKey(serve.RegisterRequest{Model: model, Train: &serve.TrainSpecRequest{}}); err == nil {
		t.Error("model+train register derived a key")
	}
}

// TestConfigValidation pins New's input checking.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty peer set")
	}
	if _, err := New(Config{Peers: []string{"127.0.0.1:8723"}}); err == nil {
		t.Error("New accepted a scheme-less peer")
	}
	if _, err := New(Config{Peers: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Error("New accepted duplicate peers")
	}
	c, err := New(Config{Peers: []string{"http://a:1", "http://b:2"}, Replicas: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Replicas != 2 {
		t.Errorf("replicas = %d, want clamped to the fleet size 2", c.cfg.Replicas)
	}
}
