package registry_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

var tiny = commtest.TinyArch()

// pipeline builds a cheap untrained pipeline; distinct seeds give
// bit-distinguishable versions.
func pipeline(seed int64) *ensemble.Ensembler {
	return commtest.Pipeline(tiny, 3, 2, seed)
}

// images builds a deterministic input batch for prediction comparisons.
func images(seed int64, n int) *tensor.Tensor {
	x := tensor.New(n, tiny.InC, tiny.H, tiny.W)
	rng.New(seed).FillNormal(x.Data, 0, 1)
	return x
}

func TestStorePublishLoadRoundTrip(t *testing.T) {
	s, err := registry.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := pipeline(1)
	v, err := s.Publish("cifar", e)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first publish got version %d, want 1", v)
	}

	loaded, man, err := s.Load("cifar", 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 1 {
		t.Fatalf("latest load got version %d, want 1", man.Version)
	}
	x := images(2, 3)
	if !loaded.Predict(x).AllClose(e.Predict(x), 1e-12) {
		t.Error("stored pipeline predicts differently after load")
	}

	man, err = s.Manifest("cifar", 1)
	if err != nil {
		t.Fatal(err)
	}
	if man.N != 3 || man.P != 2 || man.PipelineFormat != ensemble.FormatVersion {
		t.Errorf("manifest records N=%d P=%d fmt=%d", man.N, man.P, man.PipelineFormat)
	}
	if man.SHA256 == "" || man.SizeBytes <= 0 {
		t.Error("manifest missing checksum or size")
	}
}

// TestStoreRecordsLeakage: a score published with a version round-trips
// through its manifest and rides the epoch a registry loads, whether as the
// current version or lazily as a pinned one; a version published without a
// score reads as not recorded, and a score that cannot be trusted is
// refused at publish with the store unchanged.
func TestStoreRecordsLeakage(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("m", pipeline(1)); err != nil {
		t.Fatal(err)
	}
	leak := registry.Leakage{Strategy: "oracle", SSIM: 0.125, PSNR: 13.6, Floor: 0.148, Seed: 7920, Calibration: 64}
	if _, err := s.PublishWith("m", pipeline(2), registry.PublishOptions{Shards: 3, Leakage: &leak}); err != nil {
		t.Fatal(err)
	}
	if man, err := s.Manifest("m", 1); err != nil || man.Leakage != nil {
		t.Errorf("unscored v1 manifest = %+v (%v), want no score", man, err)
	}
	if man, err := s.Manifest("m", 2); err != nil || man.Leakage == nil || *man.Leakage != leak || man.Shards != 3 {
		t.Errorf("scored v2 manifest = %+v (%v), want score %+v over 3 shards", man, err, leak)
	}

	reg, err := registry.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := reg.Current("m")
	if err != nil || cur.Version() != 2 || cur.Leakage() == nil || *cur.Leakage() != leak {
		t.Fatalf("current epoch = %v (%v), want v2 carrying %+v", cur, err, leak)
	}
	pinned, err := reg.Epoch("m", 1)
	if err != nil || pinned.Leakage() != nil {
		t.Errorf("lazily loaded v1 = %v (%v), want no score", pinned, err)
	}

	for _, bad := range []registry.Leakage{
		{Strategy: "oracle", SSIM: math.NaN(), Calibration: 64},
		{Strategy: "oracle", SSIM: 0.1, PSNR: math.Inf(1), Calibration: 64},
		{Strategy: "oracle", SSIM: 1.5, Calibration: 64},
		{SSIM: 0.1, Calibration: 64},
	} {
		if _, err := s.PublishWith("m", pipeline(3), registry.PublishOptions{Leakage: &bad}); err == nil {
			t.Errorf("published leakage %+v", bad)
		}
	}
	if versions, err := s.Versions("m"); err != nil || len(versions) != 2 {
		t.Errorf("versions after refused publishes = %v (%v), want [1 2]", versions, err)
	}
}

func TestStoreVersionsAreSequential(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 3; want++ {
		v, err := s.Publish("m", pipeline(int64(want)))
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("publish %d assigned version %d", want, v)
		}
	}
	versions, err := s.Versions("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 || versions[0] != 1 || versions[2] != 3 {
		t.Errorf("versions = %v", versions)
	}
	latest, err := s.Latest("m")
	if err != nil || latest != 3 {
		t.Errorf("latest = %d, %v", latest, err)
	}
	// No publish temp residue.
	entries, _ := os.ReadDir(filepath.Join(dir, "m"))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("leftover temp entry %s", e.Name())
		}
	}
}

func TestStoreMultipleModels(t *testing.T) {
	s, err := registry.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"beta", "alpha"} {
		if _, err := s.Publish(name, pipeline(7)); err != nil {
			t.Fatal(err)
		}
	}
	models, err := s.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0] != "alpha" || models[1] != "beta" {
		t.Errorf("models = %v", models)
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	s, err := registry.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "..", "a/b", ".hidden", "sp ace"} {
		if _, err := s.Publish(name, pipeline(1)); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

// corrupt flips one byte in the middle of a stored model file.
func corrupt(t *testing.T, dir, name string, version int) {
	t.Helper()
	path := filepath.Join(dir, name, "v0001", "model.gob")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsCorruptedModel(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("cifar", pipeline(3)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, dir, "cifar", 1)

	_, err = registry.Open(dir)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("Open on a corrupted store: want checksum error, got %v", err)
	}
	if !strings.Contains(err.Error(), "cifar") {
		t.Errorf("error should name the model: %v", err)
	}
	// Load through the already-open handle fails the same way.
	if _, _, err := s.Load("cifar", 1); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("Load of a corrupted version: want checksum error, got %v", err)
	}
}

func TestOpenRejectsTruncatedModel(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("cifar", pipeline(4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cifar", "v0001", "model.gob")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = registry.Open(dir)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("Open on a truncated store: want truncation error, got %v", err)
	}
}

func TestOpenRejectsForeignManifestFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("cifar", pipeline(5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cifar", "v0001", "manifest.json")
	if err := os.WriteFile(path, []byte(`{"format": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := registry.Open(dir); err == nil || !strings.Contains(err.Error(), "format") {
		t.Errorf("want manifest-format error, got %v", err)
	}
}

func TestStorePublishPrecisionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PublishPrecision("m", pipeline(8), "f32"); err != nil {
		t.Fatal(err)
	}
	man, err := s.Manifest("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if man.Precision != "f32" {
		t.Errorf("manifest precision = %q, want f32", man.Precision)
	}
	// Plain Publish records no commitment.
	if _, err := s.Publish("m", pipeline(9)); err != nil {
		t.Fatal(err)
	}
	if man, err = s.Manifest("m", 2); err != nil || man.Precision != "" {
		t.Errorf("uncommitted manifest precision = %q (err %v), want empty", man.Precision, err)
	}
	// Unknown precisions are rejected at publish time...
	if _, err := s.PublishPrecision("m", pipeline(10), "f16"); err == nil || !strings.Contains(err.Error(), "precision") {
		t.Errorf("PublishPrecision(f16): want precision error, got %v", err)
	}
	// ...and again on read, so a hand-edited manifest cannot smuggle one in
	// and steer a serve flag the kernels don't implement.
	path := filepath.Join(dir, "m", "v0001", "manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"f32"`, `"f16"`, 1)
	if tampered == string(b) {
		t.Fatal("manifest does not contain the published precision string")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Manifest("m", 1); err == nil || !strings.Contains(err.Error(), "precision") {
		t.Errorf("tampered manifest: want precision error, got %v", err)
	}
}

func TestStoreIgnoresStrayVersionLikeEntries(t *testing.T) {
	// An operator's `cp -r v0001 v0001-backup` must not make the store
	// unopenable or miscount versions.
	dir := t.TempDir()
	s, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("m", pipeline(40)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "m", "v0001")
	for _, stray := range []string{"v0001-backup", "v2x", "vv3", "notes"} {
		if err := os.CopyFS(filepath.Join(dir, "m", stray), os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := registry.Open(dir); err != nil {
		t.Fatalf("stray sibling directories broke Open: %v", err)
	}
	versions, err := s.Versions("m")
	if err != nil || len(versions) != 1 || versions[0] != 1 {
		t.Errorf("versions = %v, %v (stray entries parsed as versions)", versions, err)
	}
}

func TestOpenMissingDirFails(t *testing.T) {
	if _, err := registry.Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Open of a missing directory must fail")
	}
}
