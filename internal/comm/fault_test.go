package comm_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/faultpoint"
	"ensembler/internal/trace"
)

// startSeamServer serves n seeded bodies behind a fault seam and stops the
// server (waiting for Serve to return) when the test ends.
func startSeamServer(t *testing.T, n int) *faultpoint.Listener {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := faultpoint.Wrap(tcp, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- comm.NewServer(commtest.Bodies(tiny, n), comm.WithWorkers(2)).Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln
}

// exchangeExact runs one pooled exchange and reports its error; an answer it
// admits must be every body's output, bit for bit.
func exchangeExact(t *testing.T, pool *comm.Pool, n int) error {
	t.Helper()
	x := commtest.Input(tiny, 600, 1)
	var ex comm.Exchanged
	if _, err := pool.ExchangeTraced(context.Background(), x, trace.Context{}, &ex); err != nil {
		return err
	}
	if len(ex.Features) != n {
		t.Fatalf("exchange returned %d features, want %d", len(ex.Features), n)
	}
	for i, b := range commtest.Bodies(tiny, n) {
		if err := comm.BitsDiffer(ex.Features[i], b.Forward(x, false)); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
	}
	return nil
}

// testMidFrameFaultReconnects drives a pooled client through a server whose
// conn fails once by the given fault kind, and pins the recovery contract:
// the faulted exchange fails (a torn frame or a lost request is a transport
// error), the pool discards the desynced connection, and the next exchange
// succeeds bit-exactly over a fresh dial — never by reusing the poisoned
// stream. The exchange before the fault, over the disarmed seam, is
// bit-exact too.
func testMidFrameFaultReconnects(t *testing.T, kind faultpoint.Kind) {
	commtest.LeakCheck(t)
	const n = 2
	ln := startSeamServer(t, n)
	pool, err := comm.NewPool(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if err := exchangeExact(t, pool, n); err != nil {
		t.Fatalf("baseline exchange: %v", err)
	}
	fault := ln.Arm(faultpoint.Policy{Kind: kind, Count: 1})
	if err := exchangeExact(t, pool, n); err == nil {
		t.Fatalf("%v fault did not surface as an exchange error", kind)
	}
	if err := exchangeExact(t, pool, n); err != nil {
		t.Fatalf("exchange after reconnect: %v", err)
	}
	if got := fault.Triggers(); got != 1 {
		t.Fatalf("%v fired %d times, want 1", kind, got)
	}
}

func TestPoolReconnectsAfterMidFramePartialWriteBinary(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.TornWrite)
}

func TestPoolReconnectsAfterMidFrameConnResetBinary(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.Reset)
}

func TestPoolReconnectsAfterReadError(t *testing.T) {
	testMidFrameFaultReconnects(t, faultpoint.ReadError)
}

// TestPoolStallDelaysButAnswers: a stalled response write delays the
// exchange and its answer is still bit-exact.
func TestPoolStallDelaysButAnswers(t *testing.T) {
	commtest.LeakCheck(t)
	const n = 2
	ln := startSeamServer(t, n)
	pool, err := comm.NewPool(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := exchangeExact(t, pool, n); err != nil {
		t.Fatal(err)
	}
	ln.Arm(faultpoint.Policy{Kind: faultpoint.Stall, Delay: 30 * time.Millisecond, Count: 1})
	start := time.Now()
	if err := exchangeExact(t, pool, n); err != nil {
		t.Fatalf("stalled exchange: %v", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("stalled exchange took %v, want the 30ms stall", took)
	}
}

// TestDialFaultSurfaces: a conn dropped at accept fails the dial in the
// hello, and the next dial succeeds.
func TestDialFaultSurfaces(t *testing.T) {
	commtest.LeakCheck(t)
	ln := startSeamServer(t, 2)
	addr := ln.Addr().String()
	ln.Arm(faultpoint.Policy{Kind: faultpoint.Drop, Count: 1})
	if c, err := comm.Dial(addr); err == nil {
		c.Close()
		t.Fatal("dial through a dropped accept succeeded")
	} else if !strings.Contains(err.Error(), "hello") {
		t.Fatalf("dial through a dropped accept failed with %q, want a failed hello", err)
	}
	c, err := comm.Dial(addr)
	if err != nil {
		t.Fatalf("dial after the drop: %v", err)
	}
	c.Close()
}
