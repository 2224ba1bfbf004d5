package registry_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembler/internal/faultpoint"
	"ensembler/internal/registry"
)

// tornPublish drives one publish into the given fault and asserts it failed
// with the injected error, leaving a crash-simulating temp dir behind.
func tornPublish(t *testing.T, s *registry.Store, site string, seed int64) {
	t.Helper()
	faultpoint.Enable(site, faultpoint.Policy{Kind: faultpoint.Error, Count: 1})
	if _, err := s.Publish("m", pipeline(seed)); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("publish with %s fault: err = %v, want injected", site, err)
	}
}

// countTempDirs counts stale .publish-* dirs left in one model's directory.
func countTempDirs(t *testing.T, modelDir string) int {
	t.Helper()
	entries, err := os.ReadDir(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".publish-") {
			n++
		}
	}
	return n
}

// TestTornPublishQuarantinedOnReopen: a publish that crashes at the rename
// (or at the manifest fsync) leaves only a temp dir — never a visible
// version — and the next Open sweeps it into the quarantine area while the
// previously published version keeps loading bit-for-bit.
func TestTornPublishQuarantinedOnReopen(t *testing.T) {
	defer faultpoint.DisableAll()
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := pipeline(1)
	if _, err := s.Publish("m", e); err != nil {
		t.Fatal(err)
	}

	tornPublish(t, s, "registry/publish-rename", 2)
	tornPublish(t, s, "registry/manifest-fsync", 3)
	if n := countTempDirs(t, filepath.Join(dir, "m")); n != 2 {
		t.Fatalf("%d stale temp dirs after two torn publishes, want 2", n)
	}

	// Crash-recovery pass: reopening the store quarantines the wreckage.
	s2, err := registry.Open(dir)
	if err != nil {
		t.Fatalf("store with torn publishes failed to open: %v", err)
	}
	q := s2.Quarantined()
	if len(q) != 2 {
		t.Fatalf("Quarantined() = %v, want 2 entries", q)
	}
	for _, name := range q {
		if !strings.HasPrefix(name, "m/.publish-") {
			t.Fatalf("quarantined entry %q not of form m/.publish-*", name)
		}
		if _, err := os.Stat(filepath.Join(dir, ".quarantine", name)); err != nil {
			t.Fatalf("quarantined entry %q not preserved on disk: %v", name, err)
		}
	}
	if n := countTempDirs(t, filepath.Join(dir, "m")); n != 0 {
		t.Fatalf("%d temp dirs survived the sweep, want 0", n)
	}

	// The quarantine area is store-internal: invisible to Models(), and the
	// good version is untouched.
	models, err := s2.Models()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if strings.HasPrefix(m, ".") {
			t.Fatalf("Models() leaked internal entry %q", m)
		}
	}
	loaded, man, err := s2.Load("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 1 {
		t.Fatalf("latest version after recovery = %d, want 1", man.Version)
	}
	x := images(4, 2)
	if !loaded.Predict(x).AllClose(e.Predict(x), 1e-12) {
		t.Error("recovered store loads a different pipeline")
	}

	// A clean store reports nothing quarantined.
	if len(s.Quarantined()) != 0 {
		t.Fatalf("pre-crash handle reports quarantined entries: %v", s.Quarantined())
	}

	// Publishing still works after recovery and resumes the version counter.
	v2, err := s2.Publish("m", pipeline(5))
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("post-recovery publish got version %d, want 2", v2)
	}
}

// TestQuarantinePruneCap: the quarantine area keeps only the newest
// maxQuarantined (8) torn publishes per model — a crash-looping publisher
// cannot fill the disk with evidence.
func TestQuarantinePruneCap(t *testing.T) {
	defer faultpoint.DisableAll()
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("m", pipeline(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		tornPublish(t, s, "registry/publish-rename", int64(10+i))
	}
	s2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Quarantined()) != 11 {
		t.Fatalf("sweep reported %d torn publishes, want 11", len(s2.Quarantined()))
	}
	entries, err := os.ReadDir(filepath.Join(dir, ".quarantine", "m"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("quarantine holds %d entries after prune, want 8", len(entries))
	}
}

// TestEpochLoadFault: a fault at epoch load surfaces as a wrapped injected
// error and a clean retry succeeds — the load path has no sticky state.
func TestEpochLoadFault(t *testing.T) {
	defer faultpoint.DisableAll()
	s, err := registry.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("m", pipeline(1)); err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable("registry/epoch-load", faultpoint.Policy{Kind: faultpoint.Error, Count: 1})
	_, _, err = s.Load("m", 0)
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Load with epoch fault: err = %v, want injected", err)
	}
	if !strings.Contains(err.Error(), `model "m"`) {
		t.Fatalf("load fault error lost the model identity: %v", err)
	}
	if _, _, err := s.Load("m", 0); err != nil {
		t.Fatalf("clean retry after load fault failed: %v", err)
	}
}
