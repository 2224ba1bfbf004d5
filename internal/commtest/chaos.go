package commtest

// The chaos runner: deterministic fault-schedule orchestration for e2e
// robustness tests. A seeded scheduler arms and disarms faults on the
// faultpoint.Listener seams in front of the servers under test while traffic
// workers hammer the system; the runner counts outcomes and then verifies
// recovery once every fault is disarmed. The schedule (which fault, which
// policy, when) is a pure function of ChaosConfig.Seed and every listener's
// trigger stream of its own seed, so a chaos failure in CI replays locally
// with the same arms in the same order. The interleaving of traffic with the
// schedule is the host's: replaying it bit for bit needs a virtual clock.
//
// The invariant chaos enforces is NOT "no errors" — faults are supposed to
// fail requests — but "no lies": every ADMITTED response must be bit-exact
// (the traffic closure reports ErrChaosMismatch otherwise), errors must stay
// inside the budget the test sets, and the system must converge back to
// clean service once the schedule ends.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/faultpoint"
	"ensembler/internal/rng"
)

// ErrChaosMismatch is returned by a traffic closure when a response was
// ADMITTED (no error surfaced) but did not match the reference bit-exactly —
// the one failure mode chaos testing exists to catch. RunChaos counts these
// separately from honest errors.
var ErrChaosMismatch = errors.New("commtest: admitted response mismatched reference")

// ChaosFault is one fault the scheduler may arm: the listeners an arm event
// arms it on (one listener for a fault local to that server, every listener
// for a wire-wide one) and the candidate policies it chooses among
// (uniformly, from the schedule rng).
type ChaosFault struct {
	Name      string
	Listeners []*faultpoint.Listener
	Policies  []faultpoint.Policy
}

// ChaosConfig parameterises one chaos run.
type ChaosConfig struct {
	Seed     int64         // drives the schedule
	Workers  int           // concurrent traffic workers (default 4)
	Flips    int           // schedule length: arm events (default 32)
	FlipGap  time.Duration // pause between schedule events (default 2ms)
	MaxArmed int           // faults armed simultaneously (default 2; oldest disarms)
	Faults   []ChaosFault
}

// ChaosReport is what a run observed.
type ChaosReport struct {
	Requests   uint64            // traffic closure invocations during the storm
	Errors     uint64            // honest failures (fault surfaced as an error)
	Mismatches uint64            // admitted-but-wrong responses; any non-zero value is a bug
	Flips      int               // schedule events executed
	Armed      map[string]int    // times each fault was armed
	Triggers   map[string]uint64 // faults fired, keyed "name/kind"; unfired ones absent
	Recovered  bool              // clean service converged after disarm
	RecoverIn  time.Duration     // how long convergence took
}

// TotalTriggers sums every fired fault — a storm that triggered nothing
// proved nothing.
func (r ChaosReport) TotalTriggers() uint64 {
	var n uint64
	for _, t := range r.Triggers {
		n += t
	}
	return n
}

func (c *ChaosConfig) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Flips <= 0 {
		c.Flips = 32
	}
	if c.FlipGap <= 0 {
		c.FlipGap = 2 * time.Millisecond
	}
	if c.MaxArmed <= 0 {
		c.MaxArmed = 2
	}
}

// armed is one schedule event's fault, armed on each of its listeners.
type armed struct {
	key    string
	lns    []*faultpoint.Listener
	faults []*faultpoint.Fault
}

// RunChaos drives traffic from cfg.Workers goroutines while the seeded
// scheduler walks cfg.Flips arm events over cfg.Faults, then disarms
// everything and verifies recovery: the traffic closure must produce
// recoveryStreak consecutive clean calls within recoveryDeadline. The
// traffic closure is called concurrently and must be goroutine-safe; it
// returns nil for a bit-exact success, ErrChaosMismatch for an admitted
// wrong answer, and any other error for an honest failure.
func RunChaos(cfg ChaosConfig, traffic func(worker int) error) ChaosReport {
	cfg.defaults()

	var requests, errCount, mismatches atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				switch err := traffic(w); {
				case err == nil:
				case errors.Is(err, ErrChaosMismatch):
					mismatches.Add(1)
				default:
					errCount.Add(1)
				}
			}
		}(w)
	}

	// The storm: arm a fault per event; past MaxArmed the oldest disarms and
	// its triggers are credited.
	report := ChaosReport{Armed: make(map[string]int), Triggers: make(map[string]uint64)}
	disarm := func(a armed) {
		for i, l := range a.lns {
			l.Disarm(a.faults[i])
			if n := a.faults[i].Triggers(); n > 0 {
				report.Triggers[a.key] += n
			}
		}
	}
	r := rng.New(cfg.Seed)
	var live []armed
	for i := 0; i < cfg.Flips; i++ {
		f := cfg.Faults[r.Intn(len(cfg.Faults))]
		policy := f.Policies[r.Intn(len(f.Policies))]
		a := armed{key: f.Name + "/" + policy.Kind.String(), lns: f.Listeners}
		for _, l := range f.Listeners {
			a.faults = append(a.faults, l.Arm(policy))
		}
		report.Armed[f.Name]++
		report.Flips++
		live = append(live, a)
		if len(live) > cfg.MaxArmed {
			disarm(live[0])
			live = live[1:]
		}
		time.Sleep(cfg.FlipGap)
	}
	close(stop)
	wg.Wait()
	report.Requests = requests.Load()
	report.Errors = errCount.Load()
	report.Mismatches = mismatches.Load()

	// Recovery: with every fault disarmed, clean service must converge.
	for _, a := range live {
		disarm(a)
	}
	const recoveryStreak = 5
	const recoveryDeadline = 10 * time.Second
	start := time.Now()
	streak := 0
	for time.Since(start) < recoveryDeadline {
		switch err := traffic(0); {
		case err == nil:
			streak++
		case errors.Is(err, ErrChaosMismatch):
			report.Mismatches++
			streak = 0
		default:
			streak = 0
			time.Sleep(5 * time.Millisecond)
		}
		if streak >= recoveryStreak {
			report.Recovered = true
			report.RecoverIn = time.Since(start)
			break
		}
	}
	return report
}

// LeakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if the count has not settled back near the snapshot after
// the test's own cleanups ran (call it FIRST, before starting servers, so
// its cleanup runs LAST). Stragglers get a grace period — connection
// handlers and retry backoffs drain on their own schedule.
func LeakCheck(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after teardown\n%s", before, now, buf[:n])
	})
}
