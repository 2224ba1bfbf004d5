package shard_test

import (
	"context"
	"testing"
	"time"

	"ensembler/internal/commtest"
	"ensembler/internal/faultpoint"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/tensor"
)

// chaosSeed fixes the whole storm: the schedule (which site, which policy,
// in what order), every per-site trigger stream and the breakers' jitter
// derive from it.
const chaosSeed = 20250807

// TestChaosFleetUnderSeededFaultSchedule is the chaos e2e: a 3-shard fleet
// takes concurrent traffic while a seeded schedule flips wire-layer and
// shard-layer faults. The invariants are the robustness contract, not "no
// errors":
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
	defer faultpoint.DisableAll()

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
	report := commtest.RunChaos(commtest.ChaosConfig{
		Seed:     chaosSeed,
		Workers:  4,
		Flips:    40,
		FlipGap:  5 * time.Millisecond,
		MaxArmed: 2,
		Sites: []commtest.ChaosSite{
			{Name: "comm/frame-write", Policies: []faultpoint.Policy{
				mild(0.4, faultpoint.ConnReset),
				{Kind: faultpoint.PartialWrite, Prob: 0.4, Frac: 0.5},
				{Kind: faultpoint.Delay, Prob: 0.5, Delay: 2 * time.Millisecond},
			}},
			{Name: "comm/frame-read", Policies: []faultpoint.Policy{mild(0.4, faultpoint.Error)}},
			{Name: "comm/dial", Policies: []faultpoint.Policy{mild(0.5, faultpoint.Error)}},
			{Name: "shard/exchange/0", Policies: []faultpoint.Policy{
				mild(0.5, faultpoint.Error),
				{Kind: faultpoint.Delay, Prob: 0.5, Delay: 2 * time.Millisecond},
			}},
			{Name: "shard/exchange/1", Policies: []faultpoint.Policy{mild(0.5, faultpoint.Error)}},
			{Name: "shard/exchange/2", Policies: []faultpoint.Policy{mild(0.5, faultpoint.Error)}},
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
	if report.TotalTriggers() == 0 {
		t.Fatal("the storm never fired a fault — the schedule proved nothing")
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
