package shard_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"ensembler/internal/commtest"
	"ensembler/internal/faultpoint"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/tensor"
)

// chaosSeed fixes the storm's schedule (which fault, which policy, in what
// order) and the breakers' jitter; the fleet's seed fixes every shard
// listener's trigger stream.
const chaosSeed = 20250807

// TestChaosFleetUnderSeededFaultSchedule is the chaos e2e: a 3-shard fleet
// takes concurrent traffic while a seeded schedule arms and disarms faults on
// the shards' listeners — on every listener at once, or on one shard's only.
// Every fault class fires: refused dials, read errors, torn writes, resets
// and stalls. The invariants are the robustness contract, not "no errors":
//
//   - zero bit-inexact admitted responses — a fault may fail a request but
//     must never corrupt one;
//   - a bounded error budget — the redundant ensemble plus retries keep a
//     healthy fraction of requests succeeding through the storm;
//   - clean convergence — once every fault disarms, service returns to
//     bit-exact successes (breakers close, pools redial);
//   - no goroutine leaks after teardown.
func TestChaosFleetUnderSeededFaultSchedule(t *testing.T) {
	commtest.LeakCheck(t) // registered first → checked last, after fleet teardown

	f := commtest.StartShards(t, 3, 4, 2, 91)
	// Two retries and fast reopen waits: the storm must see circuits open
	// and close within its 40 flips.
	p := shard.DefaultPolicy
	p.Retries = 2
	p.Backoff, p.MaxBackoff = 10*time.Millisecond, 50*time.Millisecond
	p.Seed = chaosSeed
	c, err := shard.NewClient(shard.WithPolicy(f.ClientConfig(), p))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	arch := commtest.TinyArch()
	x := tensor.New(2, arch.InC, arch.H, arch.W)
	rng.New(chaosSeed).FillNormal(x.Data, 0, 1)
	want := f.Pipeline.Predict(x)

	traffic := func(int) error {
		logits, _, err := c.Infer(context.Background(), x)
		if err != nil {
			return err
		}
		if !logits.AllClose(want, 1e-9) {
			return commtest.ErrChaosMismatch
		}
		return nil
	}

	mild := func(p float64, kind faultpoint.Kind) faultpoint.Policy {
		return faultpoint.Policy{Kind: kind, Prob: p}
	}
	stall := faultpoint.Policy{Kind: faultpoint.Stall, Prob: 0.5, Delay: 2 * time.Millisecond}
	ln := f.Listeners
	report := commtest.RunChaos(commtest.ChaosConfig{
		Seed:     chaosSeed,
		Workers:  4,
		Flips:    40,
		FlipGap:  5 * time.Millisecond,
		MaxArmed: 2,
		Faults: []commtest.ChaosFault{
			{Name: "wire", Listeners: ln, Policies: []faultpoint.Policy{
				mild(0.15, faultpoint.Reset), mild(0.15, faultpoint.TornWrite), stall,
			}},
			{Name: "wire", Listeners: ln, Policies: []faultpoint.Policy{mild(0.15, faultpoint.ReadError)}},
			{Name: "wire", Listeners: ln, Policies: []faultpoint.Policy{mild(0.3, faultpoint.Drop)}},
			{Name: "shard0", Listeners: ln[:1], Policies: []faultpoint.Policy{mild(0.3, faultpoint.ReadError), stall}},
			{Name: "shard1", Listeners: ln[1:2], Policies: []faultpoint.Policy{mild(0.3, faultpoint.TornWrite)}},
			{Name: "shard2", Listeners: ln[2:], Policies: []faultpoint.Policy{mild(0.3, faultpoint.Reset)}},
		},
	}, traffic)

	t.Logf("chaos: %d requests, %d errors, %d mismatches, %d flips, %d faults fired %v, recovered in %v, armed %v",
		report.Requests, report.Errors, report.Mismatches, report.Flips,
		report.TotalTriggers(), report.Triggers, report.RecoverIn, report.Armed)

	if report.Mismatches != 0 {
		t.Fatalf("%d admitted responses were bit-inexact — faults must fail requests, never corrupt them", report.Mismatches)
	}
	if report.Flips != 40 {
		t.Fatalf("schedule executed %d flips, want 40", report.Flips)
	}
	if report.Requests == 0 {
		t.Fatal("no traffic flowed during the storm")
	}
	// A storm that never fired a class proved nothing about it.
	fired := map[string]uint64{}
	for key, n := range report.Triggers {
		name, kind, _ := strings.Cut(key, "/")
		fired[kind] += n
		if name != "wire" {
			fired["one shard"] += n
		}
	}
	for _, class := range []string{"drop", "read-error", "torn-write", "reset", "stall", "one shard"} {
		if fired[class] == 0 {
			t.Errorf("the storm never fired a %s fault", class)
		}
	}
	// The error budget: the redundant ensemble plus retries must carry at
	// least a tenth of the traffic through the storm (in practice far more;
	// the floor is deliberately loose so scheduling variance can't flake it).
	if ok := report.Requests - report.Errors; ok*10 < report.Requests {
		t.Fatalf("error budget blown: only %d/%d requests succeeded under chaos", ok, report.Requests)
	}
	if !report.Recovered {
		t.Fatal("service never converged back to clean bit-exact responses after the storm")
	}
}

// TestChaosFleetUnderHeavyWireFaults holds the fleet to the same contract
// under a wire-wide fault rate that fails most requests: every listener is
// armed at p = 0.4 with resets, torn writes or refused dials, two kinds at
// a time. An error is the honest outcome there, so no error budget is set;
// what must hold is that no admitted answer is bit-inexact, that every
// shard's circuit opens, that service converges back to bit-exact answers
// once the faults are disarmed, and that nothing leaks.
func TestChaosFleetUnderHeavyWireFaults(t *testing.T) {
	commtest.LeakCheck(t) // registered first → checked last, after fleet teardown

	f := commtest.StartShards(t, 3, 4, 2, 92)
	// Fast reopen waits, so circuits open and close many times in the storm
	// and recovery waits at most MaxBackoff per shard.
	p := shard.DefaultPolicy
	p.Backoff, p.MaxBackoff = 10*time.Millisecond, 50*time.Millisecond
	p.Seed = chaosSeed
	c, err := shard.NewClient(shard.WithPolicy(f.ClientConfig(), p))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	arch := commtest.TinyArch()
	x := tensor.New(2, arch.InC, arch.H, arch.W)
	rng.New(chaosSeed+1).FillNormal(x.Data, 0, 1)
	want := f.Pipeline.Predict(x)
	traffic := func(int) error {
		logits, _, err := c.Infer(context.Background(), x)
		if err != nil {
			return err
		}
		if !logits.AllClose(want, 1e-9) {
			return commtest.ErrChaosMismatch
		}
		return nil
	}

	heavy := func(kind faultpoint.Kind) faultpoint.Policy { return faultpoint.Policy{Kind: kind, Prob: 0.4} }
	report := commtest.RunChaos(commtest.ChaosConfig{
		Seed:     chaosSeed,
		Workers:  4,
		Flips:    30,
		FlipGap:  5 * time.Millisecond,
		MaxArmed: 2,
		Faults: []commtest.ChaosFault{{Name: "wire", Listeners: f.Listeners, Policies: []faultpoint.Policy{
			heavy(faultpoint.Reset), heavy(faultpoint.TornWrite), heavy(faultpoint.Drop),
		}}},
	}, traffic)

	t.Logf("heavy chaos: %d requests, %d errors, %d mismatches, faults fired %v, recovered in %v",
		report.Requests, report.Errors, report.Mismatches, report.Triggers, report.RecoverIn)

	if report.Mismatches != 0 {
		t.Fatalf("%d admitted responses were bit-inexact — faults must fail requests, never corrupt them", report.Mismatches)
	}
	if report.Requests == 0 {
		t.Fatal("no traffic flowed during the storm")
	}
	for _, kind := range []string{"reset", "torn-write", "drop"} {
		if report.Triggers["wire/"+kind] == 0 {
			t.Errorf("the storm never fired a %s fault", kind)
		}
	}
	for k, h := range c.Health() {
		if h.BreakerOpens == 0 {
			t.Errorf("shard %d: circuit never opened under a 0.4 fault rate (%+v)", k, h)
		}
	}
	// Recovery takes a few reopen waits of at most MaxBackoff each; the
	// ceiling is a hundred of them, loose enough for -race scheduling.
	const ceiling = 5 * time.Second
	if !report.Recovered || report.RecoverIn > ceiling {
		t.Fatalf("service did not converge back to clean bit-exact responses within %v of the storm (recovered %v in %v)",
			ceiling, report.Recovered, report.RecoverIn)
	}
}
