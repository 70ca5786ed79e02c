package serve

// The lifecycle chaos test: one server with the self-healing loop
// enabled, driven through its whole state machine end to end — a drift
// blip that must NOT retrain, a sustained episode that retrains exactly
// once, shadow scoring under a concurrent classify storm, a promotion
// that flips the pointer atomically, a disagreeing candidate that is
// rejected without ever touching authoritative verdicts, and a
// regressing promotion that rolls back automatically. Run it under
// -race (`make chaos`): the mirror path, the retrain goroutine and the
// storm all contend on the manager.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/lifecycle"
	"fsml/internal/stream"
)

// contraryVariant trains the tiny grid with "good" relabeled "bad-fs":
// it agrees with tinyDetector on bad-fs/bad-ma traffic and disagrees on
// good traffic. n makes the content key distinct per call.
func contraryVariant(t testing.TB, n int) *core.Detector {
	t.Helper()
	d := dataset.New([]string{attrHITM, attrMiss})
	add := func(label string, hitm, miss float64) {
		if label == "good" {
			label = "bad-fs"
		}
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
		t.Fatalf("training contrary detector: %v", err)
	}
	det.TrainedOn = map[string]int{"contrary": n}
	return det
}

// chaosSpec is deliberately tight so the whole machine runs in test
// time: 3 alarms debounce, 8-comparison shadow budget, 8-comparison
// probation, rollback past 2 probation disagreements.
func chaosSpec() lifecycle.Spec {
	return lifecycle.Spec{
		Alarms:    3,
		Window:    time.Minute,
		Clear:     2,
		Every:     1,
		Shadow:    8,
		Agree:     0.9,
		Conf:      -1,
		Probation: 8,
		Regress:   0.25,
	}
}

// driftAlarms feeds n synthetic drift alarms into the live manager,
// exactly as a watch session's OnEvent hook would.
func driftAlarms(m *lifecycle.Manager, n int) {
	for i := 0; i < n; i++ {
		m.ObserveStream(stream.Event{Kind: stream.KindDrift, Drift: &stream.DriftAlarm{
			Window: i, Features: []string{attrHITM}, Score: 2,
		}})
	}
}

// driftClears feeds n drift-cleared events (the falling edge).
func driftClears(m *lifecycle.Manager, n int) {
	for i := 0; i < n; i++ {
		m.ObserveStream(stream.Event{Kind: stream.KindDriftClear, DriftClear: &stream.DriftCleared{
			Window: 10 + i, Since: 0, Windows: 10 + i,
		}})
	}
}

// awaitState polls the manager until it reaches want (the retrain runs
// on its own goroutine, so transitions are asynchronous).
func awaitState(t testing.TB, m *lifecycle.Manager, want lifecycle.State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("manager stuck in %q, want %q", m.State(), want)
}

var (
	vecFS   = []float64{0.55, 0.05} // tiny and contrary both say bad-fs
	vecGood = []float64{0.01, 0.02} // tiny: good; contrary: bad-fs
)

func TestChaosDriftRetrainPromoteRollback(t *testing.T) {
	base := tinyDetector(t)

	// The injectable retrainer: each run hands out whatever candidate
	// the test has staged.
	var candidate atomic.Pointer[core.Detector]
	cfg := Config{
		RegistryDir: t.TempDir(),
		Lifecycle: &lifecycle.Config{
			Spec: chaosSpec(),
			Train: func(seed uint64) (*core.Detector, float64, error) {
				return candidate.Load(), 0.95, nil
			},
		},
	}
	s, client := newTestServer(t, cfg)
	lc := s.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle disabled on a server configured with Config.Lifecycle")
	}
	t.Cleanup(lc.Close)
	ctx := context.Background()

	classify := func(vec []float64) string {
		t.Helper()
		resp, err := client.Classify(ctx, ClassifyRequest{Events: []string{attrHITM, attrMiss}, Vector: vec})
		if err != nil {
			t.Fatalf("classify: %v", err)
		}
		return resp.Class
	}
	activePointer := func() (string, string, int) {
		key, prev, ver, ok := s.reg.Active("default")
		if !ok {
			t.Fatal("active pointer missing")
		}
		return key, prev, ver
	}
	defaultKey := TrainSpec{Quick: true, Seed: 1}.Key()

	// Phase 0: a healthy boot. The pointer is seeded at v1 = the
	// configured default, /readyz carries the state, and a single drift
	// blip that clears must not trigger a retrain.
	if key, _, ver := activePointer(); key != defaultKey || ver != 1 {
		t.Fatalf("seeded pointer = (%s, v%d), want (%s, v1)", key, ver, defaultKey)
	}
	ready, err := client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready.Lifecycle != string(lifecycle.StateStable) {
		t.Fatalf("/readyz lifecycle = %q, want %q", ready.Lifecycle, lifecycle.StateStable)
	}
	if got := classify(vecGood); got != "good" {
		t.Fatalf("baseline good verdict = %q", got)
	}
	driftAlarms(lc, 1)
	driftClears(lc, 2)
	if st := lc.State(); st != lifecycle.StateStable {
		t.Fatalf("after one blip + clears: state %q, want stable", st)
	}
	if n := s.metrics.Counter(lifecycle.MetricRetrain); n != 0 {
		t.Fatalf("a single drift blip retrained (%d runs); the debounce is broken", n)
	}

	// Phase 1: sustained drift retrains exactly once, and the candidate
	// (behaviorally identical, distinct key) wins shadow + probation
	// under a concurrent classify storm. Every authoritative verdict in
	// the storm must be bad-fs regardless of which side of the flip it
	// lands on.
	cand1 := variantDetector(base, 101)
	candidate.Store(cand1)
	driftAlarms(lc, 3)
	awaitState(t, lc, lifecycle.StateShadowing)
	if n := s.metrics.Counter(lifecycle.MetricRetrain); n != 1 {
		t.Fatalf("sustained drift retrained %d times, want exactly 1", n)
	}

	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := client.Classify(ctx, ClassifyRequest{Events: []string{attrHITM, attrMiss}, Vector: vecFS})
				if err != nil || resp.Class != "bad-fs" {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d storm verdicts lost or changed across the promotion flip", n)
	}
	// 32 mirrored comparisons cover shadow (8) + probation (8) with
	// room for staleness drops; top up if the flip landed late.
	deadline := time.Now().Add(5 * time.Second)
	for lc.State() != lifecycle.StateStable && time.Now().Before(deadline) {
		classify(vecFS)
	}
	awaitState(t, lc, lifecycle.StateStable)
	key1, _, _, _ := s.reg.Active("default")
	if key, prev, ver := activePointer(); key == defaultKey || prev != defaultKey || ver != 2 {
		t.Fatalf("after promotion: pointer (%s, prev %s, v%d), want (candidate, prev %s, v2)", key, prev, ver, defaultKey)
	}
	if n := s.metrics.Counter(lifecycle.MetricPromote); n != 1 {
		t.Fatalf("promote counter = %d, want 1", n)
	}

	// Phase 2: a disagreeing candidate shadows but never serves. While
	// it is being scored, authoritative good-vector verdicts must stay
	// "good" even though the candidate calls them bad-fs; it then loses
	// the budget and is rejected without touching the pointer.
	candidate.Store(contraryVariant(t, 1))
	driftAlarms(lc, 3)
	awaitState(t, lc, lifecycle.StateShadowing)
	for i := 0; i < chaosSpec().Shadow; i++ {
		if got := classify(vecGood); got != "good" {
			t.Fatalf("shadowed request %d served %q: the candidate leaked into the authoritative path", i, got)
		}
	}
	awaitState(t, lc, lifecycle.StateStable)
	if n := s.metrics.Counter(lifecycle.MetricReject); n != 1 {
		t.Fatalf("reject counter = %d, want 1", n)
	}
	if key, _, ver := activePointer(); key != key1 || ver != 2 {
		t.Fatalf("rejection moved the pointer to (%s, v%d); it must stay (%s, v2)", key, ver, key1)
	}

	// Phase 3: a candidate that looks good in shadow (bad-fs traffic
	// only) is promoted, then regresses on good traffic during
	// probation and is rolled back automatically.
	cand3 := contraryVariant(t, 2)
	candidate.Store(cand3)
	driftAlarms(lc, 3)
	awaitState(t, lc, lifecycle.StateShadowing)
	for i := 0; i < chaosSpec().Shadow; i++ {
		classify(vecFS) // both sides agree here; the candidate wins its budget
	}
	awaitState(t, lc, lifecycle.StatePromoting)
	if key, _, ver := activePointer(); key == key1 || ver != 3 {
		t.Fatalf("after second promotion: pointer (%s, v%d), want (contrary candidate, v3)", key, ver)
	}
	// The flip is honest: the promoted (bad) model now answers
	// authoritatively, so good vectors come back bad-fs — which is
	// exactly the disagreement-with-previous that probation catches.
	disagreements := 0
	for lc.State() == lifecycle.StatePromoting && disagreements < 2*chaosSpec().Probation {
		if classify(vecGood) == "bad-fs" {
			disagreements++
		}
	}
	awaitState(t, lc, lifecycle.StateRolledBack)
	if key, _, ver := activePointer(); key != key1 || ver != 4 {
		t.Fatalf("rollback restored (%s, v%d), want previous key %s at v4", key, ver, key1)
	}
	if n := s.metrics.Counter(lifecycle.MetricRollback); n != 1 {
		t.Fatalf("rollback counter = %d, want 1", n)
	}
	if got := classify(vecGood); got != "good" {
		t.Fatalf("post-rollback good verdict = %q; the restored version is not serving", got)
	}
	driftClears(lc, 2)
	awaitState(t, lc, lifecycle.StateStable)

	// The whole story must be auditable: three runs in the ledger with
	// the right outcomes (newest first), every transition recorded, and
	// the counters consistent with what we watched happen.
	resp, err := client.Lifecycle(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || resp.Status == nil {
		t.Fatal("GET /v1/lifecycle: loop not reported enabled")
	}
	if resp.Status.State != lifecycle.StateStable {
		t.Fatalf("status state = %q, want stable", resp.Status.State)
	}
	wantOutcomes := []string{"rolled-back", "rejected", "promoted"}
	if len(resp.History) != len(wantOutcomes) {
		t.Fatalf("history has %d runs, want %d", len(resp.History), len(wantOutcomes))
	}
	for i, want := range wantOutcomes {
		r := resp.History[i]
		if r.Outcome != want {
			t.Errorf("history[%d] outcome = %q, want %q", i, r.Outcome, want)
		}
		if len(r.Transitions) == 0 {
			t.Errorf("history[%d] recorded no transitions; the run is not auditable", i)
		}
	}
	for counter, want := range map[string]uint64{
		lifecycle.MetricRetrain:    3,
		lifecycle.MetricPromote:    2,
		lifecycle.MetricRollback:   1,
		lifecycle.MetricReject:     1,
		lifecycle.MetricTrainError: 0,
	} {
		if got := s.metrics.Counter(counter); got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
}

// BenchmarkShadowMirror measures what mirroring costs the classify hot
// path: the same vector classified with the lifecycle absent, armed but
// idle (one atomic load), and actively shadowing a candidate (a second
// tree walk per sampled request). This is the number behind the
// "shadow overhead" row in EXPERIMENTS.md (`make bench-snapshot`).
func BenchmarkShadowMirror(b *testing.B) {
	in := &classifyInput{events: []string{attrHITM, attrMiss}, vecs: vecFS, width: len(vecFS)}

	run := func(b *testing.B, s *Server) {
		b.Helper()
		ctx := context.Background()
		if _, err := s.classify(ctx, in); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.classify(ctx, in); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("off", func(b *testing.B) {
		s, _ := newTestServer(b, Config{})
		run(b, s)
	})
	b.Run("idle", func(b *testing.B) {
		s, _ := newTestServer(b, Config{Lifecycle: &lifecycle.Config{Spec: chaosSpec()}})
		if s.Lifecycle() == nil {
			b.Fatal("lifecycle disabled")
		}
		b.Cleanup(s.Lifecycle().Close)
		run(b, s)
	})
	b.Run("shadowing", func(b *testing.B) {
		base := tinyDetector(b)
		cand := variantDetector(base, 9001)
		// A huge shadow budget keeps the manager in the shadowing state
		// for the whole measured loop.
		spec := chaosSpec()
		spec.Shadow = 1 << 30
		s, _ := newTestServer(b, Config{Lifecycle: &lifecycle.Config{
			Spec:  spec,
			Train: func(uint64) (*core.Detector, float64, error) { return cand, 0.97, nil },
		}})
		lc := s.Lifecycle()
		if lc == nil {
			b.Fatal("lifecycle disabled")
		}
		b.Cleanup(lc.Close)
		driftAlarms(lc, 3)
		awaitState(b, lc, lifecycle.StateShadowing)
		run(b, s)
	})
}
