package registry_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/registry"
)

// countTempDirs counts stale .publish-* dirs left in one model's directory.
func countTempDirs(t *testing.T, modelDir string) int {
	t.Helper()
	entries, err := os.ReadDir(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), registry.PublishTempPrefix) {
			n++
		}
	}
	return n
}

// TestTornPublishQuarantinedOnReopen: a publish whose process died mid
// model file or just before the rename leaves only a temp dir — never a
// visible version — and the next Open sweeps it into the quarantine area
// while the previously published version keeps loading bit-for-bit.
func TestTornPublishQuarantinedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := pipeline(1)
	if _, err := s.Publish("m", e); err != nil {
		t.Fatal(err)
	}

	commtest.PlantTornPublish(t, dir, "m", pipeline(2), false)
	commtest.PlantTornPublish(t, dir, "m", pipeline(3), true)
	if v, err := s.Latest("m"); err != nil || v != 1 {
		t.Fatalf("latest version with two torn publishes on disk = %d, %v; want 1", v, err)
	}
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
		if !strings.HasPrefix(name, "m/"+registry.PublishTempPrefix) {
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
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("m", pipeline(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		commtest.PlantTornPublish(t, dir, "m", pipeline(int64(10+i)), i%2 == 0)
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

// TestEpochLoadFault: a version whose model file cannot be read fails to
// load with the model's identity in the error, and once the file is back a
// retry succeeds — the load path has no sticky state.
func TestEpochLoadFault(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("m", pipeline(1)); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "m", "v0001", "model.gob")
	if err := os.Rename(model, model+".away"); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Load("m", 0)
	if err == nil {
		t.Fatal("loaded a version with no model file")
	}
	if !strings.Contains(err.Error(), `model "m"`) {
		t.Fatalf("load failure lost the model identity: %v", err)
	}
	if err := os.Rename(model+".away", model); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load("m", 0); err != nil {
		t.Fatalf("retry once the model file is back failed: %v", err)
	}
}
