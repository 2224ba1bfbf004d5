package commtest

// The chaos runner: deterministic fault-schedule orchestration for e2e
// robustness tests. A seeded scheduler flips faultpoint sites on and off
// while traffic workers hammer the system under test; the runner counts
// outcomes and then verifies recovery once every fault is disarmed. The
// whole run is reproducible from ChaosConfig.Seed — the schedule (which
// site, which policy, when) is a pure function of the seed, so a chaos
// failure in CI replays locally with the same flips in the same order.
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

// ChaosSite is one faultpoint the scheduler may arm, with the candidate
// policies it chooses among (uniformly, from the schedule rng).
type ChaosSite struct {
	Name     string
	Policies []faultpoint.Policy
}

// ChaosConfig parameterises one chaos run.
type ChaosConfig struct {
	Seed     int64         // drives the schedule AND the faultpoint master seed
	Workers  int           // concurrent traffic workers (default 4)
	Flips    int           // schedule length: arm/rotate events (default 32)
	FlipGap  time.Duration // pause between schedule events (default 2ms)
	MaxArmed int           // sites armed simultaneously (default 2; oldest rotates out)
	Sites    []ChaosSite
}

// ChaosReport is what a run observed.
type ChaosReport struct {
	Requests   uint64            // traffic closure invocations during the storm
	Errors     uint64            // honest failures (fault surfaced as an error)
	Mismatches uint64            // admitted-but-wrong responses; any non-zero value is a bug
	Flips      int               // schedule events executed
	Armed      map[string]int    // times each site was armed
	Triggers   map[string]uint64 // per-site faults actually fired during the run
	Recovered  bool              // clean service converged after disarm
	RecoverIn  time.Duration     // how long convergence took
}

// TotalTriggers sums every site's fired faults — a storm that triggered
// nothing proved nothing.
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

// RunChaos drives traffic from cfg.Workers goroutines while the seeded
// scheduler walks cfg.Flips arm/rotate events over cfg.Sites, then disarms
// everything and verifies recovery: the traffic closure must produce
// recoveryStreak consecutive clean calls within recoveryDeadline. The
// traffic closure is called concurrently and must be goroutine-safe; it
// returns nil for a bit-exact success, ErrChaosMismatch for an admitted
// wrong answer, and any other error for an honest failure.
func RunChaos(cfg ChaosConfig, traffic func(worker int) error) ChaosReport {
	cfg.defaults()
	faultpoint.SetSeed(cfg.Seed)
	defer faultpoint.DisableAll()

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

	// The storm: arm a site per event; past MaxArmed the oldest disarms.
	// Trigger accounting: arming a site resets its counters, so each site's
	// count is credited at every re-arm boundary (just before the reset) and
	// once more after the storm — every arm period is counted exactly once.
	report := ChaosReport{Armed: make(map[string]int), Triggers: make(map[string]uint64)}
	faultpoint.ResetStats()
	credit := func(name string) {
		for _, st := range faultpoint.SiteStats() {
			if st.Name == name {
				report.Triggers[name] += st.Triggers
			}
		}
	}
	r := rng.New(cfg.Seed)
	var armed []string
	for i := 0; i < cfg.Flips; i++ {
		site := cfg.Sites[r.Intn(len(cfg.Sites))]
		policy := site.Policies[r.Intn(len(site.Policies))]
		credit(site.Name)
		faultpoint.Enable(site.Name, policy)
		report.Armed[site.Name]++
		report.Flips++
		armed = append(armed, site.Name)
		if len(armed) > cfg.MaxArmed {
			faultpoint.Disable(armed[0])
			armed = armed[1:]
		}
		time.Sleep(cfg.FlipGap)
	}
	close(stop)
	wg.Wait()
	report.Requests = requests.Load()
	report.Errors = errCount.Load()
	report.Mismatches = mismatches.Load()
	for _, site := range cfg.Sites {
		credit(site.Name)
	}
	for name, n := range report.Triggers {
		if n == 0 {
			delete(report.Triggers, name)
		}
	}

	// Recovery: with every fault disarmed, clean service must converge.
	faultpoint.DisableAll()
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
