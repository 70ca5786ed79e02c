package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"fsml/internal/core"
)

// variantDetector derives a content-distinct copy of base (TrainedOn is
// part of the canonical encoding, so each n lands on its own key).
// base's tree already compiled, so NewDetector cannot fail here.
func variantDetector(base *core.Detector, n int) *core.Detector {
	det, err := core.NewDetector(base.Tree, map[string]int{"good": n})
	if err != nil {
		panic(err)
	}
	return det
}

// TestActivePointerPinsAgainstEviction promotes a version, then floods
// the registry far past capacity and asserts the active key and its
// retained rollback target both survive while unpinned keys are
// evicted. Without the pin, cache pressure could silently evict the one
// model the authoritative serving path depends on — content keys cannot
// be retrained, so the next default classify would 404.
func TestActivePointerPinsAgainstEviction(t *testing.T) {
	m := NewMetrics()
	reg := NewRegistry(RegistryConfig{Capacity: 2, Metrics: m})
	base := tinyDetector(t)

	prevKey, _, err := reg.Register(variantDetector(base, 1001))
	if err != nil {
		t.Fatal(err)
	}
	activeKey, _, err := reg.Register(variantDetector(base, 1002))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetActive("default", activeKey, prevKey, 1); err != nil {
		t.Fatal(err)
	}

	// Flood with distinct content keys; each registration runs eviction.
	var flood []string
	for i := 0; i < 16; i++ {
		key, _, err := reg.Register(variantDetector(base, i+1))
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, key)
	}
	if evicts := m.Counter(mRegistryEvicts); evicts == 0 {
		t.Fatal("no evictions under a 16-key flood at capacity 2; the test exerted no pressure")
	}

	resident := map[string]bool{}
	for _, info := range reg.List() {
		resident[info.Key] = true
	}
	if !resident[activeKey] {
		t.Errorf("active key %s was evicted under pressure", activeKey)
	}
	if !resident[prevKey] {
		t.Errorf("retained previous key %s was evicted under pressure", prevKey)
	}
	evictedSome := false
	for _, key := range flood {
		if !resident[key] {
			evictedSome = true
			break
		}
	}
	if !evictedSome {
		t.Error("no flood key was evicted; capacity bound not enforced")
	}

	// The pinned versions must still be servable, as cache hits.
	for _, key := range []string{activeKey, prevKey} {
		if _, hit, err := reg.Get(context.Background(), key); err != nil || !hit {
			t.Errorf("Get(%s) after flood: hit=%t err=%v, want resident hit", key, hit, err)
		}
	}

	// Clearing the pointer unpins: the old versions become evictable.
	if err := reg.ClearActive("default"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, _, err := reg.Register(variantDetector(base, 2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	resident = map[string]bool{}
	for _, info := range reg.List() {
		resident[info.Key] = true
	}
	if resident[activeKey] || resident[prevKey] {
		t.Errorf("cleared pointer keys still resident after flood (active=%t previous=%t), want both evictable", resident[activeKey], resident[prevKey])
	}
}

// TestActivePointerPersistsAcrossRestart promotes in one registry and
// reopens the dir in a second: the pointer must survive (that is the
// whole point of persisting it) and the promoted model must warm-start.
func TestActivePointerPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	base := tinyDetector(t)

	reg1 := NewRegistry(RegistryConfig{Dir: dir})
	key, _, err := reg1.Register(variantDetector(base, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg1.SetActive("default", key, "train:quick=true,seed=1", 3); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry(RegistryConfig{Dir: dir})
	gotKey, gotPrev, gotVer, ok := reg2.Active("default")
	if !ok || gotKey != key || gotPrev != "train:quick=true,seed=1" || gotVer != 3 {
		t.Fatalf("Active after restart = (%s, %s, %d, %t), want (%s, train:quick=true,seed=1, 3, true)", gotKey, gotPrev, gotVer, ok, key)
	}
	if det, err := reg2.Resolve(key); err != nil || det == nil {
		t.Fatalf("Resolve(%s) after restart: %v", key, err)
	}
	// active.json must not leak into the disk key listing.
	for _, k := range reg2.DiskKeys() {
		if k == "active" || k == activeFileName {
			t.Errorf("DiskKeys lists the pointer file: %v", reg2.DiskKeys())
		}
	}
}

// TestActivePointerCorruptFileQuarantined writes garbage where the
// pointer file should be: the registry must start empty-pointered (a
// lost promotion, never a crash or a wrong answer) and move the bad
// file aside for post-mortem.
func TestActivePointerCorruptFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, activeFileName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	reg := NewRegistry(RegistryConfig{Dir: dir, Metrics: m})
	if _, _, _, ok := reg.Active("default"); ok {
		t.Error("Active = ok on a corrupt pointer file, want empty")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt pointer file not quarantined: %v", err)
	}
	if m.Counter(mQuarantined) != 1 {
		t.Errorf("quarantine counter = %d, want 1", m.Counter(mQuarantined))
	}
}
