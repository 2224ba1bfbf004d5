package faultpoint

import (
	"errors"
	"testing"
	"time"
)

// TestDisabledFastPathAllocs pins the contract the serving loop depends on:
// a site check with nothing armed performs no allocation.
func TestDisabledFastPathAllocs(t *testing.T) {
	DisableAll()
	s := New("test/disabled-allocs")
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Inject(); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Fire(); ok {
			t.Fatal("disabled site fired")
		}
	}); allocs != 0 {
		t.Errorf("disabled site check allocates %v times, want 0", allocs)
	}
}

func TestEnableDisable(t *testing.T) {
	DisableAll()
	s := New("test/enable")
	if active.Load() {
		t.Fatal("fast path armed with nothing armed")
	}
	if err := s.Inject(); err != nil {
		t.Fatalf("disarmed site injected: %v", err)
	}
	Enable("test/enable", Policy{Kind: Error})
	if !active.Load() {
		t.Fatal("fast path not armed after Enable")
	}
	err := s.Inject()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("armed error site returned %v, want ErrInjected", err)
	}
	Disable("test/enable")
	if active.Load() {
		t.Fatal("fast path still armed after Disable")
	}
	if err := s.Inject(); err != nil {
		t.Fatalf("disarmed site injected: %v", err)
	}
}

// TestArmedOtherSiteDoesNotTrigger: arming site A must not make site B
// fire, only flip the global gate.
func TestArmedOtherSiteDoesNotTrigger(t *testing.T) {
	DisableAll()
	defer DisableAll()
	a := New("test/armed-a")
	b := New("test/armed-b")
	Enable("test/armed-a", Policy{Kind: Error})
	if err := b.Inject(); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	if err := a.Inject(); err == nil {
		t.Fatal("armed site did not fire")
	}
}

func TestCountAndAfter(t *testing.T) {
	DisableAll()
	defer DisableAll()
	s := New("test/count")
	Enable("test/count", Policy{Kind: Error, After: 2, Count: 3})
	var errs int
	for i := 0; i < 10; i++ {
		if s.Inject() != nil {
			errs++
			if i < 2 {
				t.Fatalf("triggered on hit %d, want first 2 skipped", i)
			}
		}
	}
	if errs != 3 {
		t.Fatalf("got %d triggers, want 3 (count cap)", errs)
	}
	st := SiteStats()
	var found bool
	for _, row := range st {
		if row.Name == "test/count" {
			found = true
			if row.Hits != 10 || row.Triggers != 3 || !row.Armed {
				t.Fatalf("stats %+v, want 10 hits / 3 triggers / armed", row)
			}
		}
	}
	if !found {
		t.Fatal("site missing from SiteStats")
	}

	// ResetStats zeroes the counters without touching the armed policy.
	ResetStats()
	for _, row := range SiteStats() {
		if row.Name == "test/count" {
			if row.Hits != 0 || row.Triggers != 0 || !row.Armed {
				t.Fatalf("after ResetStats: %+v, want 0 hits / 0 triggers / still armed", row)
			}
		}
	}
}

// TestProbabilityDeterministic: the same seed yields the same trigger
// sequence; a different seed yields a different one (overwhelmingly).
func TestProbabilityDeterministic(t *testing.T) {
	DisableAll()
	defer DisableAll()
	s := New("test/prob")
	run := func(seed int64) []bool {
		SetSeed(seed)
		Enable("test/prob", Policy{Kind: Error, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = s.Inject() != nil
		}
		return out
	}
	a1, a2, b := run(42), run(42), run(43)
	var trig int
	sameA, sameB := true, true
	for i := range a1 {
		if a1[i] {
			trig++
		}
		sameA = sameA && a1[i] == a2[i]
		sameB = sameB && a1[i] == b[i]
	}
	if !sameA {
		t.Fatal("same seed produced different trigger sequences")
	}
	if sameB {
		t.Fatal("different seeds produced identical 64-hit sequences")
	}
	if trig < 16 || trig > 48 {
		t.Fatalf("p=0.5 triggered %d/64 times — rng or probability gate broken", trig)
	}
}

func TestDelayAndPanic(t *testing.T) {
	DisableAll()
	defer DisableAll()
	d := New("test/delay")
	Enable("test/delay", Policy{Kind: Delay, Delay: 20 * time.Millisecond, Count: 1})
	start := time.Now()
	if err := d.Inject(); err != nil {
		t.Fatalf("delay trigger returned error %v", err)
	}
	if since := time.Since(start); since < 15*time.Millisecond {
		t.Fatalf("delay trigger slept %v, want ~20ms", since)
	}
	if err := d.Inject(); err != nil {
		t.Fatal("count=1 site fired twice")
	}

	p := New("test/panic")
	Enable("test/panic", Policy{Kind: Panic})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = p.Inject()
	}()
	if recovered == nil {
		t.Fatal("panic site did not panic")
	}
}

func TestPendingEnableBeforeNew(t *testing.T) {
	DisableAll()
	defer DisableAll()
	Enable("test/pending-site", Policy{Kind: Error, Count: 1})
	if !active.Load() {
		t.Fatal("pending policy did not flip the global gate")
	}
	s := New("test/pending-site")
	if err := s.Inject(); err == nil {
		t.Fatal("pending policy not applied on registration")
	}
	Disable("test/pending-site")
	if err := s.Inject(); err != nil {
		t.Fatal("site fired after Disable")
	}

	// Disabling a still-pending name must release the global gate too.
	Enable("test/pending-never-created", Policy{Kind: Error})
	Disable("test/pending-never-created")
	if active.Load() {
		t.Fatal("fast path stuck armed after disabling a pending-only policy")
	}
}

func TestFireOutcomeDefaults(t *testing.T) {
	DisableAll()
	defer DisableAll()
	s := New("test/outcome")
	Enable("test/outcome", Policy{Kind: PartialWrite})
	out, ok := s.Fire()
	if !ok {
		t.Fatal("armed site did not fire")
	}
	if out.Kind != PartialWrite || !errors.Is(out.Err, ErrInjected) || out.Frac != 0.5 {
		t.Fatalf("outcome %+v, want partial-write/ErrInjected/frac 0.5", out)
	}
	if n := out.CutLen(100); n != 50 {
		t.Fatalf("CutLen(100) = %d, want 50", n)
	}
	if n := out.CutLen(1); n != 0 {
		// frac 0.5 of 1 byte floors to 1... then clamps below n.
		t.Fatalf("CutLen(1) = %d, want 0", n)
	}
	if n := out.CutLen(0); n != 0 {
		t.Fatalf("CutLen(0) = %d, want 0", n)
	}
	custom := errors.New("custom")
	Enable("test/outcome", Policy{Kind: ConnReset, Err: custom, Frac: 0.99})
	out, ok = s.Fire()
	if !ok || out.Err != custom {
		t.Fatalf("outcome %+v ok=%v, want custom error", out, ok)
	}
	if n := out.CutLen(100); n != 99 {
		t.Fatalf("CutLen(100) frac=0.99 = %d, want 99", n)
	}
}

func TestNamesAndActive(t *testing.T) {
	DisableAll()
	defer DisableAll()
	New("test/names-a")
	New("test/names-b")
	names := Names()
	has := func(list []string, want string) bool {
		for _, n := range list {
			if n == want {
				return true
			}
		}
		return false
	}
	if !has(names, "test/names-a") || !has(names, "test/names-b") {
		t.Fatalf("Names() = %v missing registered sites", names)
	}
	Enable("test/names-b", Policy{})
	Enable("test/names-pending", Policy{})
	act := Active()
	if !has(act, "test/names-b") || !has(act, "test/names-pending") || has(act, "test/names-a") {
		t.Fatalf("Active() = %v, want exactly the armed + pending sites", act)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Error: "error", Panic: "panic", Delay: "delay",
		PartialWrite: "partial-write", ConnReset: "conn-reset", Kind(250): "kind(250)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewIdempotent(t *testing.T) {
	a := New("test/idempotent")
	b := New("test/idempotent")
	if a != b {
		t.Fatal("New returned distinct sites for one name")
	}
	if a.Name() != "test/idempotent" {
		t.Fatalf("Name() = %q", a.Name())
	}
}

// BenchmarkSiteDisabled measures the fast path the serving loop pays per
// site when nothing is armed: one atomic load and a branch. CI gates 0
// allocs/op; the ns/op should sit at or below ~1ns on any modern core.
func BenchmarkSiteDisabled(b *testing.B) {
	DisableAll()
	s := New("bench/disabled")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Inject(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteArmedOtherSite: the cost when the global gate is open but
// THIS site is disarmed — the price every other site pays during a chaos
// window.
func BenchmarkSiteArmedOtherSite(b *testing.B) {
	DisableAll()
	defer DisableAll()
	s := New("bench/disarmed")
	Enable("bench/armed-elsewhere", Policy{Kind: Error})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Inject(); err != nil {
			b.Fatal(err)
		}
	}
}
