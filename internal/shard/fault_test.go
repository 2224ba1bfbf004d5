package shard_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ensembler/internal/commtest"
	"ensembler/internal/faultpoint"
	"ensembler/internal/shard"
)

// TestBreakerShortCircuitsAndRecovers drives the circuit end to end over a
// live fleet: read errors armed on an unselected shard's listener open its
// circuit, further requests short-circuit without wire traffic (and still
// succeed — graceful degradation), and once the fault clears, the half-open
// probe closes the circuit again.
func TestBreakerShortCircuitsAndRecovers(t *testing.T) {
	f := commtest.StartShards(t, 3, 4, 2, 63)
	p := shard.DefaultPolicy
	p.Retries, p.DownAfter, p.Jitter = 0, 2, 0 // no retries, no jitter: an exact schedule
	p.Backoff, p.MaxBackoff = 50*time.Millisecond, 50*time.Millisecond
	c, err := shard.NewClient(shard.WithPolicy(f.ClientConfig(), p))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := imageBatch(1, 64)
	want := f.Pipeline.Predict(x)
	_, unsel := shardHosting(t, f)

	fault := f.Listeners[unsel].Arm(faultpoint.Policy{Kind: faultpoint.ReadError})
	for i := 0; i < 2; i++ {
		logits, _, err := c.Infer(ctx, x)
		if err != nil {
			t.Fatalf("request %d: unselected shard fault must be survivable: %v", i, err)
		}
		if !logits.AllClose(want, 1e-9) {
			t.Fatalf("request %d returned wrong logits", i)
		}
	}
	h := c.Health()[unsel]
	if h.Breaker != shard.BreakerOpen || h.BreakerOpens != 1 {
		t.Fatalf("after %d failures: %+v, want an open circuit", p.DownAfter, h)
	}

	// Open circuit: requests short-circuit — no wire attempts accumulate —
	// and inference still succeeds because the shard is unselected.
	wireRequests := h.Requests
	for i := 0; i < 3; i++ {
		if _, _, err := c.Infer(ctx, x); err != nil {
			t.Fatalf("short-circuited request failed: %v", err)
		}
	}
	h = c.Health()[unsel]
	if h.Requests != wireRequests {
		t.Fatalf("open circuit still produced wire traffic: %d → %d requests", wireRequests, h.Requests)
	}
	if h.ShortCircuits < 3 {
		t.Fatalf("short circuits not counted: %+v", h)
	}
	if h.LastErr == "" {
		// LastErr still names the priming fault; the short-circuit error is
		// returned to Infer, not recorded as a wire failure.
		t.Fatalf("health lost its last wire error: %+v", h)
	}

	// Fault cleared: after the reopen backoff, one probe is admitted and
	// its success closes the circuit.
	f.Listeners[unsel].Disarm(fault)
	time.Sleep(60 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := c.Infer(ctx, x); err != nil {
			t.Fatalf("recovery inference failed: %v", err)
		}
		if h = c.Health()[unsel]; h.Breaker == shard.BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never closed after fault cleared: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.ConsecutiveFailures != 0 {
		t.Fatalf("recovered circuit kept a failure streak: %+v", h)
	}
}

// TestBreakerOpenOnSelectedShardFailsFast: a request that needs an
// open-circuit shard fails with ErrBreakerOpen without touching the wire —
// the caller sees the refusal in microseconds, not a connect timeout.
func TestBreakerOpenOnSelectedShardFailsFast(t *testing.T) {
	f := commtest.StartShards(t, 3, 4, 2, 63)
	p := shard.DefaultPolicy
	p.Retries, p.DownAfter = 0, 1
	p.Backoff = time.Hour // stays open for the whole test
	c, err := shard.NewClient(shard.WithPolicy(f.ClientConfig(), p))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := imageBatch(1, 66)
	sel, _ := shardHosting(t, f)

	f.Listeners[sel].Arm(faultpoint.Policy{Kind: faultpoint.ReadError, Count: 1})
	if _, _, err := c.Infer(ctx, x); err == nil {
		t.Fatal("selected-shard fault did not fail the request")
	}
	start := time.Now()
	_, _, err = c.Infer(ctx, x)
	if !errors.Is(err, shard.ErrBreakerOpen) {
		t.Fatalf("open selected shard returned %v, want ErrBreakerOpen", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("short-circuit took %v — it must not touch the wire", elapsed)
	}
}
