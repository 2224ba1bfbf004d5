package shard

import (
	"errors"
	"testing"
	"time"
)

func testBreaker() *breaker {
	// jitter 0 so reopen instants are exact; threshold 3 like the default.
	return newBreaker(policy{DownAfter: 3, Backoff: 100 * time.Millisecond, MaxBackoff: 800 * time.Millisecond}, 7)
}

// errExchange is the failure the unit tests record.
var errExchange = errors.New("exchange failed")

// read returns the snapshot fields the state-machine tests check.
func read(b *breaker, now time.Time) (BreakerState, int, uint64, time.Duration) {
	h := b.snapshot(now)
	return h.Breaker, h.ConsecutiveFailures, h.BreakerOpens, h.ReopenIn
}

// TestBreakerStateMachine walks the full circuit: closed → open on the
// threshold streak, short-circuit while open, half-open single-probe
// admission after the backoff, reopen with doubled backoff on a failed
// probe, and closed again (backoff reset) on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	b := testBreaker()
	t0 := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if admit, probe := b.allow(t0); !admit || probe {
			t.Fatalf("closed circuit: allow = (%v,%v), want (true,false)", admit, probe)
		}
		b.recordFailure(t0, errExchange)
		if st, _, _, _ := read(b, t0); st != BreakerClosed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, st)
		}
	}
	b.recordFailure(t0, errExchange)
	st, fails, opens, reopenIn := read(b, t0)
	if st != BreakerOpen || fails != 3 || opens != 1 {
		t.Fatalf("after threshold: state=%v fails=%d opens=%d, want open/3/1", st, fails, opens)
	}
	if reopenIn != 100*time.Millisecond {
		t.Fatalf("reopenIn = %v, want 100ms (base, no jitter)", reopenIn)
	}

	// Open: short-circuit until the backoff elapses.
	if admit, _ := b.allow(t0.Add(50 * time.Millisecond)); admit {
		t.Fatal("open circuit admitted before reopen backoff elapsed")
	}

	// Backoff elapsed: exactly one caller becomes the probe; concurrent
	// callers keep short-circuiting while it is in flight.
	t1 := t0.Add(150 * time.Millisecond)
	admit, probe := b.allow(t1)
	if !admit || !probe {
		t.Fatalf("reopen instant: allow = (%v,%v), want probe admission", admit, probe)
	}
	if admit, _ := b.allow(t1); admit {
		t.Fatal("second caller admitted while a half-open probe is in flight")
	}
	if st, _, _, _ := read(b, t1); st != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}

	// Failed probe: reopen with doubled backoff.
	b.recordFailure(t1, errExchange)
	st, _, opens, reopenIn = read(b, t1)
	if st != BreakerOpen || opens != 2 || reopenIn != 200*time.Millisecond {
		t.Fatalf("failed probe: state=%v opens=%d reopenIn=%v, want open/2/200ms", st, opens, reopenIn)
	}

	// Next probe succeeds: closed, streak cleared, backoff reset to base.
	t2 := t1.Add(250 * time.Millisecond)
	if admit, probe := b.allow(t2); !admit || !probe {
		t.Fatal("second probe not admitted after doubled backoff")
	}
	b.recordSuccess()
	st, fails, _, _ = read(b, t2)
	if st != BreakerClosed || fails != 0 {
		t.Fatalf("after probe success: state=%v fails=%d, want closed/0", st, fails)
	}
	b.recordFailure(t2, errExchange)
	b.recordFailure(t2, errExchange)
	b.recordFailure(t2, errExchange)
	if _, _, _, reopenIn := read(b, t2); reopenIn != 100*time.Millisecond {
		t.Fatalf("backoff after recovery = %v, want reset to 100ms base", reopenIn)
	}
}

// TestBreakerBackoffCap: repeated failed probes double the wait only up to
// the cap.
func TestBreakerBackoffCap(t *testing.T) {
	b := testBreaker()
	now := time.Unix(2000, 0)
	for i := 0; i < 3; i++ {
		b.recordFailure(now, errExchange)
	}
	for i := 0; i < 10; i++ {
		now = now.Add(time.Hour)
		if admit, probe := b.allow(now); !admit || !probe {
			t.Fatalf("probe %d not admitted after an hour", i)
		}
		b.recordFailure(now, errExchange)
	}
	if _, _, _, reopenIn := read(b, now); reopenIn != 800*time.Millisecond {
		t.Fatalf("reopenIn = %v, want capped at 800ms", reopenIn)
	}
}

// TestBreakerJitterDeterministicAndBounded: jittered reopen waits are
// reproducible from the seed and stay within ±jitter of the nominal wait.
func TestBreakerJitterDeterministicAndBounded(t *testing.T) {
	run := func(seed int64) []time.Duration {
		b := newBreaker(policy{DownAfter: 1, Backoff: 100 * time.Millisecond, MaxBackoff: time.Minute, Jitter: 0.3}, seed)
		now := time.Unix(3000, 0)
		var waits []time.Duration
		for i := 0; i < 8; i++ {
			b.recordFailure(now, errExchange)
			_, _, _, reopenIn := read(b, now)
			waits = append(waits, reopenIn)
			now = now.Add(2 * time.Minute)
			b.allow(now) // take the probe slot
			now = now.Add(time.Minute)
		}
		return waits
	}
	a1, a2, c := run(11), run(11), run(12)
	varies := false
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed, different jitter at step %d: %v vs %v", i, a1[i], a2[i])
		}
		if a1[i] != c[i] {
			varies = true
		}
		nominal := 100 * time.Millisecond << min(i, 9)
		if nominal > time.Minute {
			nominal = time.Minute
		}
		lo := time.Duration(float64(nominal) * 0.69)
		hi := time.Duration(float64(nominal) * 1.31)
		if a1[i] < lo || a1[i] > hi {
			t.Fatalf("step %d wait %v outside [%v,%v]", i, a1[i], lo, hi)
		}
	}
	if !varies {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// TestBreakerReleaseProbe: a probe whose caller was cancelled hands the
// slot back (open, immediately eligible) instead of wedging half-open.
func TestBreakerReleaseProbe(t *testing.T) {
	b := testBreaker()
	now := time.Unix(4000, 0)
	for i := 0; i < 3; i++ {
		b.recordFailure(now, errExchange)
	}
	now = now.Add(time.Second)
	if admit, probe := b.allow(now); !admit || !probe {
		t.Fatal("probe not admitted")
	}
	b.releaseProbe()
	if admit, probe := b.allow(now); !admit || !probe {
		t.Fatal("released probe slot not re-admittable")
	}
	// releaseProbe on a non-half-open circuit is a no-op.
	b.recordSuccess()
	b.releaseProbe()
	if st, _, _, _ := read(b, now); st != BreakerClosed {
		t.Fatalf("releaseProbe disturbed a closed circuit: %v", st)
	}
}

// TestBreakerLateFailureWhileOpen: a straggler failure from a request
// admitted before the circuit opened must not disturb the reopen schedule.
func TestBreakerLateFailureWhileOpen(t *testing.T) {
	b := testBreaker()
	now := time.Unix(5000, 0)
	for i := 0; i < 3; i++ {
		b.recordFailure(now, errExchange)
	}
	_, _, opens, reopenBefore := read(b, now)
	b.recordFailure(now, errExchange) // straggler
	_, _, opensAfter, reopenAfter := read(b, now)
	if opensAfter != opens || reopenAfter != reopenBefore {
		t.Fatalf("straggler failure re-opened the circuit: opens %d→%d reopen %v→%v",
			opens, opensAfter, reopenBefore, reopenAfter)
	}
}

func TestBreakerStateString(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
		BreakerState(9): "invalid",
	} {
		if st.String() != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
	if !errors.Is(ErrBreakerOpen, ErrBreakerOpen) {
		t.Fatal("ErrBreakerOpen identity broken")
	}
}
