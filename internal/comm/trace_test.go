package comm

import (
	"context"
	"net"
	"testing"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// startTracedServer runs a server with the given tracer attached and returns
// its address plus a shutdown func.
func startTracedServer(t *testing.T, tr *trace.Tracer, extra ...ServerOption) (string, func()) {
	t.Helper()
	opts := append([]ServerOption{WithTracer(tr)}, extra...)
	srv := NewServer(instrumentBodies(2), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		ln.Close()
		<-served
	}
}

func wireTracedClient(t *testing.T, c *Client) {
	t.Helper()
	c.ComputeFeatures = func(x *tensor.Tensor) *tensor.Tensor { return x }
	c.Select = nn.ConcatFeatures
	c.Tail = nn.NewNetwork("t", nn.NewLinear("fc", 2*4*8*8, 3, rng.New(5)))
}

// waitForTrace polls until the tracer retains at least want legs of id.
func waitForTrace(t *testing.T, tr *trace.Tracer, id uint64, want int) []trace.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if legs := tr.TraceByID(id); len(legs) >= want {
			return legs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace %016x never reached %d retained legs", id, want)
	return nil
}

// echoedTraceID sends x's features on c's connection under the trace
// context tc and returns the trace ID the response echoed, as the client
// codec decodes it.
func echoedTraceID(t *testing.T, c *Client, x *tensor.Tensor, tc trace.Context) uint64 {
	t.Helper()
	var ex Exchanged
	req := Request{Features: c.ComputeFeatures(x)}
	if err := c.codec.writeRequest(&req, tc); err != nil {
		t.Fatal(err)
	}
	echo, err := c.codec.readResponse(&ex.resp, &ex.arena)
	if err != nil {
		t.Fatal(err)
	}
	if ex.resp.Err != "" {
		t.Fatalf("server error: %s", ex.resp.Err)
	}
	return echo
}

// TestTracedRoundTripEchoesIDAndRetainsLeg is the wire half of tracing: a
// client-supplied trace context rides a binary connection, the server
// echoes the ID on the response, and the server's leg — with its decode,
// queue, forward, and encode spans — lands in the tracer's ring because the
// upstream Sampled flag forces retention.
func TestTracedRoundTripEchoesIDAndRetainsLeg(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: -1, SlowestN: -1})
	addr, shutdown := startTracedServer(t, tr)
	defer shutdown()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wireTracedClient(t, client)

	ctx := context.Background()
	x := instrumentInput(1)

	// Untraced request first: no context set, so the response must not echo.
	if got := echoedTraceID(t, client, x, trace.Context{}); got != 0 {
		t.Fatalf("untraced request echoed trace ID %016x", got)
	}

	tc := trace.Context{ID: tr.NewID(), Sampled: true}
	if got := echoedTraceID(t, client, x, tc); got != tc.ID {
		t.Fatalf("echoed trace ID = %016x, want %016x", got, tc.ID)
	}

	legs := waitForTrace(t, tr, tc.ID, 1)
	leg := legs[0]
	if !leg.Forced {
		t.Fatal("upstream-sampled leg not marked forced")
	}
	if leg.Err {
		t.Fatal("healthy leg flagged as an error")
	}
	for _, s := range []trace.Stage{trace.StageQueue, trace.StageForward, trace.StageEncode} {
		found := false
		for i := 0; i < leg.N; i++ {
			if leg.Spans[i].Stage == s {
				found = true
			}
		}
		if !found {
			t.Errorf("server leg missing %s span (has %d spans)", s, leg.N)
		}
	}
	// The stage spans must fit inside the leg: attribution that exceeds the
	// measured total is double-counting.
	var sum int64
	for i := 0; i < leg.N; i++ {
		sum += leg.Spans[i].Dur
	}
	if sum > leg.Dur*11/10 {
		t.Errorf("span durations sum to %v, exceeding leg total %v", time.Duration(sum), time.Duration(leg.Dur))
	}

	// A failed request retains with the error flag even without Sampled.
	client.Trace = trace.Context{ID: tr.NewID()}
	if _, _, err := client.Infer(ctx, tensor.New(4, 8, 8)); err == nil {
		t.Fatal("rank-3 features must be rejected")
	}
	failedLegs := waitForTrace(t, tr, client.Trace.ID, 1)
	if !failedLegs[0].Err {
		t.Fatal("failed request's leg not marked as error")
	}
}

// BenchmarkServeRequestLoopTraced is BenchmarkServeRequestLoop with a
// rate-1 tracer attached — every request records spans AND retains into the
// ring. The allocation report is the acceptance gate: tracing must add zero
// allocations to the serving loop even in this worst case (CI greps for 0
// allocs/op).
func BenchmarkServeRequestLoopTraced(b *testing.B) {
	benchServeRequestLoop(b, 2, trace.New(trace.Config{SampleRate: 1, SlowestN: 4, Capacity: 256}))
}

// BenchmarkServeRequestLoopTracedDefault is the same loop at the default 1%
// sample rate — the production configuration. CI holds its ns/op to within
// 5% of the untraced BenchmarkServeRequestLoop.
func BenchmarkServeRequestLoopTracedDefault(b *testing.B) {
	benchServeRequestLoop(b, 2, trace.New(trace.Config{Capacity: 256}))
}
