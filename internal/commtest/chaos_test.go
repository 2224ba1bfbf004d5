package commtest_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// chaosSeed fixes the whole storm: which publishes crash, and where. (The
// fleet storm lives with the shard client's tests, which can set its breaker
// schedule.)
const chaosSeed = 20250807

// TestChaosRegistryTornPublishes storms the registry's durability path: a
// seeded loop of publishes in which three in ten die mid-way, leaving what a
// process death leaves — a temp dir with the model file cut short, or with
// the whole model and its manifest but no rename. The integrity contract: a
// fresh Open always succeeds, the latest loadable version is exactly the
// last publish that completed (bit-for-bit), every torn publish lands in
// quarantine, and the quarantine area stays bounded.
func TestChaosRegistryTornPublishes(t *testing.T) {
	commtest.LeakCheck(t)

	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	arch := commtest.TinyArch()
	x := tensor.New(2, arch.InC, arch.H, arch.W)
	rng.New(chaosSeed+1).FillNormal(x.Data, 0, 1)

	r := rng.New(chaosSeed)
	var lastGoodSeed int64
	torn, published := 0, 0
	for i := 0; i < 20; i++ {
		seed := int64(100 + i)
		e := commtest.Pipeline(arch, 3, 2, seed)
		if r.Float64() < 0.3 {
			commtest.PlantTornPublish(t, dir, "m", e, r.Float64() < 0.5)
			torn++
			continue
		}
		if _, err := s.Publish("m", e); err != nil {
			t.Fatalf("publish %d with %d torn publishes on disk: %v", i, torn, err)
		}
		published++
		lastGoodSeed = seed
	}
	if torn == 0 || published == 0 {
		t.Fatalf("degenerate storm: %d torn, %d published — the seed must exercise both paths", torn, published)
	}

	s2, err := registry.Open(dir)
	if err != nil {
		t.Fatalf("store failed to open after %d torn publishes: %v", torn, err)
	}
	if got := len(s2.Quarantined()); got != torn {
		t.Fatalf("sweep quarantined %d torn publishes, want %d", got, torn)
	}
	entries, err := os.ReadDir(filepath.Join(dir, ".quarantine", "m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 8 {
		t.Fatalf("quarantine area grew to %d entries, want ≤ 8", len(entries))
	}
	loaded, man, err := s2.Load("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != published {
		t.Fatalf("latest version %d, want %d (one per successful publish)", man.Version, published)
	}
	wantPipeline := commtest.Pipeline(arch, 3, 2, lastGoodSeed)
	if !loaded.Predict(x).AllClose(wantPipeline.Predict(x), 1e-12) {
		t.Fatal("latest version is not the last successfully published pipeline")
	}
	models, err := s2.Models()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if strings.HasPrefix(m, ".") {
			t.Fatalf("internal entry %q leaked into Models()", m)
		}
	}
}
