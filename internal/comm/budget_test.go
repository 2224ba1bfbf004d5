package comm

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
)

// This file pins the comm half of the privacy-budget contract: the wire
// codes and handshake bytes, the single attempt a budget refusal costs a
// Pool (a drained budget does not refill on retry, so retrying is pure waste), the
// escalation-noise arithmetic, and the zero-allocation discipline of the
// guarded serving loop. The policy ladder itself is pinned in
// internal/privacy; the end-to-end escalation run lives in
// budget_e2e_test.go.

// refuseOnceBinary runs a hand-rolled server (see scriptedBinary) that
// refuses each connection's first request with the budget code and serves
// afterwards, counting every request it sees.
func refuseOnceBinary(t *testing.T, attempts *atomic.Uint64) string {
	feature := wireTensor(431, 1, 8)
	return scriptedBinary(t, func(i int, _ *Request) *Response {
		attempts.Add(1)
		if i == 0 {
			return &Response{Err: budgetExhaustedMsg, Code: CodeBudgetExhausted}
		}
		return &Response{Features: []*tensor.Tensor{feature}}
	})
}

// TestPoolBudgetExhaustedTerminalBinary pins retry terminality: a budget
// refusal — the Code field of the response frame — must surface immediately
// as ErrBudgetExhausted after exactly one attempt. A drained budget does not
// recover on any retry timescale, and hammering the server only burns the
// refusal counters.
func TestPoolBudgetExhaustedTerminalBinary(t *testing.T) {
	var attempts atomic.Uint64
	addr := refuseOnceBinary(t, &attempts)

	pool, err := NewPool(addr, 1, func(c *Client) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := wireTensor(433, 1, 4, 8, 8)
	_, _, err = pool.Exchange(context.Background(), x)
	// The server would have served a second attempt: the pool must not
	// spend it.
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("binary budget refusal surfaced as %v, want ErrBudgetExhausted", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("budget-refused exchange hit the server %d times, want exactly 1", got)
	}
	if _, _, err := pool.Exchange(context.Background(), x); err != nil {
		t.Fatalf("connection unusable after a binary budget refusal: %v", err)
	}
}

// TestWireHelloBytesPinned pins the handshake bytes. These literals are the
// wire contract — if this test needs editing, the protocol broke.
func TestWireHelloBytesPinned(t *testing.T) {
	if got, want := helloBytes(wireVersion, 0), [8]byte{0xE5, 'N', 'S', 'B', 4, 0, 0, 0}; got != want {
		t.Errorf("v4 ID-less hello bytes = %v, want %v", got, want)
	}
	if got, want := helloBytes(wireVersion, wireFlagF32|wireFlagClientID), [8]byte{0xE5, 'N', 'S', 'B', 4, 0x03, 0, 0}; got != want {
		t.Errorf("v4 flagged hello bytes = %v, want %v", got, want)
	}
	// The client-ID frame encoding is equally pinned: message type 0x05,
	// one-byte length, raw ID bytes.
	if got, want := string(appendClientID(nil, "ab")), "\x05\x02ab"; got != want {
		t.Errorf("client-ID frame body = %q, want %q", got, want)
	}
}

// TestNegotiateClientIDHandshake pins the server half of the identity
// declaration at the negotiate boundary: a hello with the flag yields the
// declared identity; a v3 hello forging the flag is refused like any v3 hello,
// with no extra read; a hostile ID frame drops the connection.
func TestNegotiateClientIDHandshake(t *testing.T) {
	srv := NewServer(codecBodies(1))

	type result struct {
		id  string
		err error
	}
	run := func(t *testing.T, drive func(c net.Conn, ack []byte)) result {
		t.Helper()
		server, client := net.Pipe()
		defer server.Close()
		defer client.Close()
		done := make(chan result, 1)
		go func() {
			_, id, err := srv.negotiate(server, bufio.NewReaderSize(server, 1<<16))
			done <- result{id, err}
		}()
		var ack [8]byte
		drive(client, ack[:])
		select {
		case r := <-done:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("negotiate did not return — it is reading bytes the peer never promised")
			return result{}
		}
	}

	t.Run("v4 declared identity", func(t *testing.T) {
		r := run(t, func(c net.Conn, ack []byte) {
			hello := helloBytes(wireVersion, wireFlagClientID)
			c.Write(hello[:])
			io.ReadFull(c, ack)
			if ack[4] != wireVersion || ack[5]&wireFlagClientID == 0 {
				t.Errorf("ack ver %d flags %#x: v4 ID offer not accepted", ack[4], ack[5])
			}
			writeFrame(c, appendClientID([]byte{0, 0, 0, 0}, "did:ex:alice"))
		})
		if r.err != nil || r.id != "did:ex:alice" {
			t.Fatalf("negotiate = (%q, %v), want the declared identity", r.id, r.err)
		}
	})

	t.Run("v3 flag forgery ignored", func(t *testing.T) {
		// The refusal must not echo the flag or wait for the frame it would
		// promise (net.Pipe would deadlock the test if it did).
		r := run(t, func(c net.Conn, ack []byte) {
			hello := helloBytes(3, wireFlagClientID)
			c.Write(hello[:])
			io.ReadFull(c, ack)
			if want := helloBytes(0, 0); [8]byte(ack) != want {
				t.Errorf("ack % x: a v3 hello must get the version-0 refusal % x", ack, want)
			}
		})
		if r.err == nil {
			t.Fatalf("negotiate accepted a v3 hello as %q", r.id)
		}
	})

	t.Run("hostile ID frame drops connection", func(t *testing.T) {
		r := run(t, func(c net.Conn, ack []byte) {
			hello := helloBytes(wireVersion, wireFlagClientID)
			c.Write(hello[:])
			io.ReadFull(c, ack)
			// Frame length far beyond the 66-byte ceiling: the server must
			// reject it from the header alone.
			c.Write([]byte{0xFF, 0xFF, 0, 0})
		})
		if r.err == nil {
			t.Fatalf("negotiate accepted a hostile ID frame as %q", r.id)
		}
	})
}

// TestAddrBucket pins the legacy-identity derivation: one account per peer
// host, a disjoint namespace from declared IDs, and no panic on degenerate
// addresses.
func TestAddrBucket(t *testing.T) {
	tcp := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4321}
	if got := addrBucket(tcp); got != "addr:127.0.0.1" {
		t.Errorf("addrBucket(%v) = %q, want addr:127.0.0.1", tcp, got)
	}
	// Two connections from one host share an account.
	tcp2 := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9999}
	if addrBucket(tcp) != addrBucket(tcp2) {
		t.Error("same-host peers bucketed into different accounts")
	}
	if got := addrBucket(nil); got != "addr:unknown" {
		t.Errorf("addrBucket(nil) = %q", got)
	}
	if got := addrBucket(&net.UnixAddr{Name: "@sock", Net: "unix"}); got != "addr:@sock" {
		t.Errorf("addrBucket(unix) = %q", got)
	}
}

// TestNoiseResponseStatistics pins the escalation-noise arithmetic: additive
// Gaussian perturbation of the declared sigma on every payload value, in
// place, on both precisions — and a strict no-op at sigma 0.
func TestNoiseResponseStatistics(t *testing.T) {
	const n = 1 << 14
	const sigma = 0.1

	j := newJob[float64]()
	j.rng = 12345
	j.noiseSigma = sigma
	feat := tensor.New(1, n)
	p := payloadOf[float64](j)
	p.outputs, p.served = [][]*tensor.Tensor{{feat}}, true
	noiseResponse(j)

	var sum, sumSq float64
	for _, v := range feat.Data {
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 5*sigma/math.Sqrt(n) {
		t.Errorf("noise mean %v too far from 0 for sigma %v over %d draws", mean, sigma, n)
	}
	if math.Abs(std-sigma) > 0.1*sigma {
		t.Errorf("noise std %v, want within 10%% of sigma %v", std, sigma)
	}

	// Sigma 0 leaves the payload untouched (and must not seed the rng).
	j2 := newJob[float64]()
	clean := tensor.New(1, 8)
	for i := range clean.Data {
		clean.Data[i] = float64(i)
	}
	p2 := payloadOf[float64](j2)
	p2.outputs, p2.served = [][]*tensor.Tensor{{clean}}, true
	noiseResponse(j2)
	for i, v := range clean.Data {
		if v != float64(i) {
			t.Fatalf("sigma-0 noiseResponse modified value %d", i)
		}
	}
	if j2.rng != 0 {
		t.Error("sigma-0 noiseResponse seeded the noise state")
	}

	// The f32 response path perturbs the f32 payload.
	j3 := newJob[float32]()
	j3.noiseSigma = sigma
	f32 := tensor.NewOf[float32](1, n)
	p3 := payloadOf[float32](j3)
	p3.outputs, p3.served = [][]*tensor.Tensor32{{f32}}, true
	noiseResponse(j3)
	var nonzero int
	for _, v := range f32.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < n/2 {
		t.Errorf("f32 noise touched only %d/%d values", nonzero, n)
	}
}

// benchGuard builds a guard over an enormous row budget: the hot path runs
// the full charge arithmetic while the account stays healthy for any
// realistic iteration count.
func benchGuard(tb testing.TB) *privacy.Guard {
	tb.Helper()
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 1e15})
	if err != nil {
		tb.Fatal(err)
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return guard
}

// TestServeLoopZeroAllocsWithLedger extends the zero-allocation pin to the
// guarded serving loop, in both regimes a live server sees: a healthy
// account (charge verdict, no noise) and a half-drained one (charge verdict
// plus in-place Gaussian noise on every response value). Budget accounting
// is only deployable because it costs nothing here; this test is the gate.
func TestServeLoopZeroAllocsWithLedger(t *testing.T) {
	const nBodies = 3
	newSrv := func(g *privacy.Guard) *Server {
		return NewServer(codecBodies(nBodies), WithWorkers(2), WithBudget(g))
	}
	run := func(t *testing.T, g *privacy.Guard, acct *privacy.Account, wantNoise bool) {
		t.Helper()
		loop := newServeLoop(t, newSrv(g), &Request{Features: wireTensor(23, 2, 4, 8, 8)}, false)
		loop.account = acct
		if allocs := loop.allocs(); allocs != 0 {
			t.Errorf("guarded serve loop allocates %v times per request, want 0", allocs)
		}
		noised := g.Noised()
		loop.cycle()
		if wantNoise && g.Noised() != noised+1 {
			t.Error("drained account served without an escalation-noise verdict")
		}
	}

	t.Run("healthy account", func(t *testing.T) {
		g := benchGuard(t)
		run(t, g, g.AccountFor("healthy"), false)
	})

	t.Run("noised account", func(t *testing.T) {
		// Budget sized so the warm-up drains past NoiseAt while the whole
		// test stays far from refusal: 2 rows/request.
		ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 1000})
		if err != nil {
			t.Fatal(err)
		}
		g, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		acct := g.AccountFor("drained")
		// Drain to 60% spent with direct charges before serving.
		for g.Charge(acct, 100); acct.Spent() < 600; {
			g.Charge(acct, 100)
		}
		run(t, g, acct, true)
	})
}

// BenchmarkServeRequestLoopLedger is BenchmarkServeRequestLoop with the
// privacy-budget guard attached and every request charged to a live
// account — the CI allocation gate for the guarded serving loop
// (`0 allocs/op` is asserted by the workflow grep, and independently by
// TestServeLoopZeroAllocsWithLedger).
func BenchmarkServeRequestLoopLedger(b *testing.B) {
	const nBodies = 4
	guard := benchGuard(b)
	srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithBudget(guard))
	loop := newServeLoop(b, srv, &Request{Features: wireTensor(24, 4, 4, 8, 8)}, false)
	loop.account = guard.AccountFor("bench-client")
	loop.bench(b)
}

// The stringer/parser helpers the serve banner and registry manifests lean
// on: round-trip every precision form and pin the wire-format names.
func TestPrecisionAndWireStrings(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{{"", PrecisionF64}, {"f64", PrecisionF64}, {"f32", PrecisionF32}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Error("ParsePrecision(f16) must be rejected")
	}
	if PrecisionF64.String() != "f64" || PrecisionF32.String() != "f32" {
		t.Error("Precision.String round-trip broken")
	}
	for f, want := range map[WireFormat]string{
		WireBinary: "binary", WireBinaryF32: "binary+f32", WireFormat(99): "WireFormat(99)",
	} {
		if f.String() != want {
			t.Errorf("WireFormat(%d).String() = %q, want %q", int(f), f.String(), want)
		}
	}
}
