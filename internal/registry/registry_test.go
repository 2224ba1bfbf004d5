package registry_test

import (
	"slices"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
)

func TestRegistryPublishAndResolve(t *testing.T) {
	r := registry.New(nil)
	e := pipeline(10)
	ep, err := r.Publish("cifar", e)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Version() != 1 || ep.Name() != "cifar" {
		t.Fatalf("first publish → %s v%d", ep.Name(), ep.Version())
	}

	// The first published model becomes the default; "" and version 0
	// resolve to it — the pre-registry fallback.
	got, err := r.Epoch("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != ep {
		t.Error("default resolution did not return the published epoch")
	}
	if m, err := r.Resolve("", 0); err != nil || m.Seq() != ep.Seq() {
		t.Errorf("ModelProvider resolution mismatch: %v", err)
	}

	if _, err := r.Epoch("nope", 0); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown model: %v", err)
	}
	if _, err := r.Epoch("cifar", 9); err == nil {
		t.Error("unknown version must fail on a storeless registry")
	}
}

func TestRegistryHotPublishSwapsCurrent(t *testing.T) {
	r := registry.New(nil)
	ep1, err := r.Publish("m", pipeline(11))
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := r.Publish("m", pipeline(12))
	if err != nil {
		t.Fatal(err)
	}
	if ep2.Version() != 2 {
		t.Fatalf("second publish version %d", ep2.Version())
	}
	if ep1.Seq() == ep2.Seq() {
		t.Error("epochs must have distinct sequence numbers")
	}
	cur, err := r.Current("m")
	if err != nil || cur != ep2 {
		t.Error("current must be the newest publish")
	}
	// The old epoch stays resolvable for pinned clients.
	old, err := r.Epoch("m", 1)
	if err != nil || old != ep1 {
		t.Error("pinned resolution of the superseded version failed")
	}
	// Both stay independently servable.
	x := images(13, 2)
	if old.Pipeline().Predict(x).AllClose(cur.Pipeline().Predict(x), 1e-12) {
		t.Error("distinct seeds should give distinguishable versions")
	}
}

func TestRegistryRotateSelector(t *testing.T) {
	r := registry.New(nil)
	ep1, err := r.Publish("m", pipeline(14))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), ep1.Pipeline().Selector.Indices...)
	if got := r.RotationCount("m"); got != 0 {
		t.Fatalf("fresh model rotation count %d, want 0", got)
	}

	ep2, err := r.RotateSelector("", ensemble.RotateOptions{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if ep2.Version() != 2 {
		t.Fatalf("rotation published version %d, want 2", ep2.Version())
	}
	same := len(before) == len(ep2.Pipeline().Selector.Indices)
	if same {
		for i := range before {
			if before[i] != ep2.Pipeline().Selector.Indices[i] {
				same = false
			}
		}
	}
	if same {
		t.Error("rotation kept the secret subset")
	}
	// Rotation is invisible on the wire: same bodies, so a header-less
	// client's features produce bit-identical server outputs across epochs.
	x := images(16, 2)
	f := ep1.Pipeline().ClientFeatures(x)
	a := ep1.Pipeline().ServerCompute(f)
	b := ep2.Pipeline().ServerCompute(f)
	for i := range a {
		if !a[i].AllClose(b[i], 1e-12) {
			t.Fatalf("body %d output changed across rotation", i)
		}
	}
	// "" resolves the default model; a publish is not a rotation, and an
	// unknown model counts none.
	if _, err := r.Publish("m", pipeline(19)); err != nil {
		t.Fatal(err)
	}
	if got := r.RotationCount("m"); got != 1 {
		t.Errorf("rotation count %d after one rotation and one publish, want 1", got)
	}
	if got := r.RotationCount("nope"); got != 0 {
		t.Errorf("unknown model rotation count %d, want 0", got)
	}
}

func TestRegistrySetDefaultRoutesHeaderless(t *testing.T) {
	r := registry.New(nil)
	if _, err := r.Publish("a", pipeline(17)); err != nil {
		t.Fatal(err)
	}
	epB, err := r.Publish("b", pipeline(18))
	if err != nil {
		t.Fatal(err)
	}
	if r.Default() != "a" {
		t.Fatalf("default = %q, want first-published", r.Default())
	}
	if err := r.SetDefault("b"); err != nil {
		t.Fatal(err)
	}
	got, err := r.Epoch("", 0)
	if err != nil || got != epB {
		t.Error("header-less resolution must follow the new default")
	}
	if err := r.SetDefault("nope"); err == nil {
		t.Error("defaulting to an unknown model must fail")
	}
	if models := r.Models(); len(models) != 2 || models[0] != "a" || models[1] != "b" {
		t.Errorf("models = %v", models)
	}
}

func TestRegistryWriteThroughAndReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := registry.New(store)
	if _, err := r.Publish("m", pipeline(19)); err != nil {
		t.Fatal(err)
	}
	ep2, err := r.RotateSelector("m", ensemble.RotateOptions{Seed: 20})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process opens the same directory and resumes at the rotated
	// version, same secret subset.
	r2, err := registry.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := r2.Current("m")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version() != 2 {
		t.Fatalf("reopened current version %d, want 2", cur.Version())
	}
	a, b := ep2.Pipeline().Selector.Indices, cur.Pipeline().Selector.Indices
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rotated selection not persisted")
		}
	}
	// Version pinning works across the restart by lazily loading from disk.
	old, err := r2.Epoch("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Version() != 1 {
		t.Errorf("pinned version = %d", old.Version())
	}
}

func TestRegistryLoadStorePicksUpOutOfProcessPublish(t *testing.T) {
	dir := t.TempDir()
	store, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := registry.New(store)
	if _, err := r.Publish("m", pipeline(21)); err != nil {
		t.Fatal(err)
	}

	// Another process publishes v2 directly to disk.
	store2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.Publish("m", pipeline(22)); err != nil {
		t.Fatal(err)
	}

	// The serving registry reloads (the SIGHUP path) and swaps to v2.
	updated, err := r.LoadStore()
	if err != nil {
		t.Fatal(err)
	}
	if updated != 1 {
		t.Errorf("LoadStore updated %d models, want 1", updated)
	}
	cur, err := r.Current("m")
	if err != nil || cur.Version() != 2 {
		t.Errorf("current after reload = v%d, want v2", cur.Version())
	}
	// Reloading again is a no-op.
	if updated, _ := r.LoadStore(); updated != 0 {
		t.Errorf("idempotent reload updated %d models", updated)
	}
}

// raceOnFirstWrite is a RotateOptions.Log writer that runs race on the
// rotation's first progress line — after the rotation resolved the current
// epoch and before it publishes — and never again, so a racer lands inside
// the rotation's window on every run.
type raceOnFirstWrite struct {
	race func()
	done bool
}

func (w *raceOnFirstWrite) Write(p []byte) (int, error) {
	if !w.done {
		w.done = true
		w.race()
	}
	return len(p), nil
}

// TestRotateSelectorRefusesToRevertRacingPublish: a publish or a rotation
// that lands while a rotation is in flight must not be overwritten by the
// rotation of the stale pipeline. The rotation starts over on the fresh
// current instead, so the final epoch derives from the racer.
func TestRotateSelectorRefusesToRevertRacingPublish(t *testing.T) {
	t.Run("publish", func(t *testing.T) {
		r := registry.New(nil)
		if _, err := r.Publish("m", pipeline(90)); err != nil {
			t.Fatal(err)
		}
		fresh := pipeline(91)
		var racer *registry.Epoch
		log := &raceOnFirstWrite{race: func() {
			var err error
			if racer, err = r.Publish("m", fresh); err != nil {
				t.Error(err)
			}
		}}
		ep, err := r.RotateSelector("m", ensemble.RotateOptions{Seed: 93, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		if racer == nil {
			t.Fatal("the racing publish never ran")
		}
		if cur, err := r.Current("m"); err != nil || cur != ep || ep.Version() != 3 {
			t.Fatalf("rotation published v%d, not the current v3 (%v)", ep.Version(), err)
		}
		for i, m := range ep.Pipeline().Members {
			if m != fresh.Members[i] {
				t.Fatalf("rotation reverted member %d to the pre-publish pipeline", i)
			}
		}
		if ep.Seq() != racer.Seq() {
			t.Errorf("rotation seq %d, want the rotated epoch's body generation %d", ep.Seq(), racer.Seq())
		}
	})

	t.Run("rotation", func(t *testing.T) {
		r := registry.New(nil)
		v1, err := r.Publish("m", pipeline(94))
		if err != nil {
			t.Fatal(err)
		}
		// Seeds where the stale rotation of v1 draws exactly the racer's
		// subset: a race check comparing Seq, which a rotation keeps, misses
		// the racer and publishes that subset again.
		const seed = 95
		stale, err := v1.Pipeline().Rotate(ensemble.RotateOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		racerSeed := int64(-1)
		for s := int64(0); s < 64 && racerSeed < 0; s++ {
			d, err := v1.Pipeline().Rotate(ensemble.RotateOptions{Seed: s})
			if err != nil {
				t.Fatal(err)
			}
			if s != seed && slices.Equal(d.Selector.Indices, stale.Selector.Indices) {
				racerSeed = s
			}
		}
		if racerSeed < 0 {
			t.Fatalf("no racer seed draws the stale subset %v", stale.Selector.Indices)
		}

		var racer *registry.Epoch
		log := &raceOnFirstWrite{race: func() {
			var err error
			if racer, err = r.RotateSelector("m", ensemble.RotateOptions{Seed: racerSeed}); err != nil {
				t.Error(err)
			}
		}}
		ep, err := r.RotateSelector("m", ensemble.RotateOptions{Seed: seed, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		if racer == nil {
			t.Fatal("the racing rotation never ran")
		}
		if cur, err := r.Current("m"); err != nil || cur != ep || ep.Version() != 3 {
			t.Fatalf("rotation published v%d, not the current v3 (%v)", ep.Version(), err)
		}
		want, err := racer.Pipeline().Rotate(ensemble.RotateOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := ep.Pipeline().Selector.Indices; !slices.Equal(got, want.Selector.Indices) {
			t.Errorf("final subset %v does not derive from the racer's %v (want %v)",
				got, racer.Pipeline().Selector.Indices, want.Selector.Indices)
		}
		if ep.Seq() != v1.Seq() || racer.Seq() != v1.Seq() {
			t.Errorf("rotations minted body generations: v1 %d, racer %d, final %d", v1.Seq(), racer.Seq(), ep.Seq())
		}
	})
}

func TestRegistryBoundsRetainedEpochs(t *testing.T) {
	// A rotation cadence publishes forever; memory must not grow with it.
	// Superseded epochs beyond the retention bound are evicted — resolvable
	// again through a store, gone for good without one.
	dir := t.TempDir()
	store, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := registry.New(store)
	if _, err := r.Publish("m", pipeline(30)); err != nil {
		t.Fatal(err)
	}
	const publishes = 12
	for i := 0; i < publishes; i++ {
		if _, err := r.RotateSelector("m", ensemble.RotateOptions{Seed: int64(31 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := r.Current("m")
	if err != nil || cur.Version() != publishes+1 {
		t.Fatalf("current = v%d, %v", cur.Version(), err)
	}
	// v1 was evicted from memory but lazily reloads from the store.
	old, err := r.Epoch("m", 1)
	if err != nil {
		t.Fatalf("evicted version must reload from the store: %v", err)
	}
	if old.Version() != 1 {
		t.Errorf("reloaded version = %d", old.Version())
	}

	// Storeless: the same churn makes old versions genuinely unknown.
	r2 := registry.New(nil)
	if _, err := r2.Publish("m", pipeline(50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < publishes; i++ {
		if _, err := r2.RotateSelector("m", ensemble.RotateOptions{Seed: int64(51 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r2.Epoch("m", 1); err == nil {
		t.Error("storeless registry must not retain unboundedly many epochs")
	}
	if cur, err := r2.Current("m"); err != nil || cur.Version() != publishes+1 {
		t.Errorf("current survived eviction wrong: v%d, %v", cur.Version(), err)
	}
}

// TestEpochBodiesAreThePipelines pins the comm.ServedModel contract: an
// epoch serves its pipeline's own bodies — every call the same networks, so a
// server compiles the one copy the registry holds — while CloneBodies, for
// callers that run the caching Forward, hands out private networks with the
// same weights.
func TestEpochBodiesAreThePipelines(t *testing.T) {
	r := registry.New(nil)
	ep, err := r.Publish("m", pipeline(23))
	if err != nil {
		t.Fatal(err)
	}
	own, again, clones := ep.Bodies(), ep.Bodies(), ep.Pipeline().CloneBodies()
	if len(own) != 3 || len(again) != 3 || len(clones) != 3 {
		t.Fatalf("body counts %d, %d, %d, want 3", len(own), len(again), len(clones))
	}
	x := commtest.Input(tiny, 24, 2) // body-shaped features, not images
	for i, b := range own {
		if b != ep.Pipeline().Members[i].Body || again[i] != b {
			t.Fatalf("body %d is not the pipeline's own network", i)
		}
		if clones[i] == b {
			t.Fatalf("CloneBodies handed out body %d itself", i)
		}
		if !clones[i].Forward(x, false).AllClose(b.Forward(x, false), 0) {
			t.Fatalf("clone of body %d diverges", i)
		}
	}
}
