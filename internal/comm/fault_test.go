package comm

import (
	"context"
	"errors"
	"testing"

	"ensembler/internal/faultpoint"
)

// testMidFrameFaultReconnects drives a pooled client through a server whose
// response write is torn mid-frame by the given fault kind, and pins the
// recovery contract: the faulted exchange fails (a torn frame is a transport
// error), the pool discards the desynced connection,
// and the next exchange succeeds bit-exactly over a fresh dial — never by
// reusing the poisoned stream.
func testMidFrameFaultReconnects(t *testing.T, kind faultpoint.Kind) {
	defer faultpoint.DisableAll()
	addr := startServer(t, codecBodies(2))
	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := wireTensor(600, 1, 4, 8, 8)
	want, _, err := pool.Exchange(context.Background(), x)
	if err != nil {
		t.Fatalf("baseline exchange: %v", err)
	}
	if len(want.Features) != 2 {
		t.Fatalf("baseline returned %d features, want 2", len(want.Features))
	}

	faultpoint.Enable("comm/frame-write", faultpoint.Policy{Kind: kind, Count: 1, Frac: 0.5})
	if _, _, err := pool.Exchange(context.Background(), x); err == nil {
		t.Fatal("mid-frame write fault did not surface as an exchange error")
	}

	// The pool must have discarded the broken connection; this exchange
	// rides a fresh dial and must be bit-exact with the baseline.
	got, _, err := pool.Exchange(context.Background(), x)
	if err != nil {
		t.Fatalf("exchange after reconnect: %v", err)
	}
	for i := range want.Features {
		if !got.Features[i].AllClose(want.Features[i], 0) {
			t.Fatalf("feature %d differs after reconnect — desynced stream reuse", i)
		}
	}
}

func TestPoolReconnectsAfterMidFramePartialWriteBinary(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.PartialWrite)
}

func TestPoolReconnectsAfterMidFrameConnResetBinary(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.ConnReset)
}

// TestDialFaultSurfaces: the client-side dial site fails the connection
// before any socket traffic, with the address in the error.
func TestDialFaultSurfaces(t *testing.T) {
	defer faultpoint.DisableAll()
	addr := startServer(t, codecBodies(2))
	faultpoint.Enable("comm/dial", faultpoint.Policy{Kind: faultpoint.Error, Count: 1})
	if _, err := Dial(addr); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("dial fault surfaced as %v, want injected", err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after fault exhausted: %v", err)
	}
	c.Close()
}

// BenchmarkServeRequestLoopFaultpointsDisabled is BenchmarkServeRequestLoop
// with the faultpoint layer explicitly disarmed: CI gates this at 0
// allocs/op to pin that compiled-in fault sites cost the serving loop
// nothing — one atomic load per site, no allocations, no branches taken.
func BenchmarkServeRequestLoopFaultpointsDisabled(b *testing.B) {
	faultpoint.DisableAll()
	benchServeRequestLoop(b, 2, nil)
}
