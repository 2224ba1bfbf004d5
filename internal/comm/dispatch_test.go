package comm

// The race-proof queueing suite for the continuous-batching dispatcher.
// Everything here runs under -race in CI: cross-connection coalescing,
// graceful shutdown with a non-empty intake, admission-control fairness
// under a deliberate firehose, and the zero-allocation pin for the
// coalesced serve path.

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// startBatchingServer boots a dispatcher-enabled server on loopback and
// returns it with its address and the Serve error channel.
func startBatchingServer(t *testing.T, ctx context.Context, nBodies int, opts ...ServerOption) (*Server, string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(codecBodies(nBodies), opts...)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ctx, ln) }()
	return srv, ln.Addr().String(), errCh
}

// referenceBodies recomputes what the server's bodies produce for x —
// codecBodies is seeded, so a private rebuild gives the exact expectation.
func referenceBodies(nBodies int, x *tensor.Tensor) []*tensor.Tensor {
	bodies := codecBodies(nBodies)
	out := make([]*tensor.Tensor, nBodies)
	for i, b := range bodies {
		out[i] = b.Forward(x, false)
	}
	return out
}

// TestCrossConnectionCoalescing is the heart of the suite: M independent
// connections issue single-feature requests concurrently; the dispatcher
// must stack requests from different connections into shared batches
// (witnessed by the coalesced-batch histogram and MaxCoalesced > 1) and
// every client must still receive exactly its own rows — the per-job split
// is where a coalescing bug would corrupt results, so each client uses a
// distinct row count and checks bit-exactness against a local rebuild.
func TestCrossConnectionCoalescing(t *testing.T) {
	const (
		nBodies = 2
		clients = 6
		rounds  = 5
	)
	m := NewServerMetrics(telemetry.NewRegistry())
	srv, addr, _ := startBatchingServer(t, context.Background(), nBodies,
		WithBatchWindow(20*time.Millisecond), WithMetrics(m))

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			rows := 1 + id%3
			x := wireTensor(int64(100+id), rows, 4, 8, 8)
			want := referenceBodies(nBodies, x)
			for r := 0; r < rounds; r++ {
				ex, _, err := client.Exchange(context.Background(), x)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, r, err)
					return
				}
				if len(ex.Features) != nBodies {
					errs <- fmt.Errorf("client %d round %d: %d feature maps, want %d", id, r, len(ex.Features), nBodies)
					return
				}
				for b := range want {
					if !ex.Features[b].AllClose(want[b], 0) {
						errs <- fmt.Errorf("client %d round %d: body %d features diverge from reference", id, r, b)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := srv.DispatcherStats()
	if !stats.Enabled {
		t.Fatal("dispatcher not enabled")
	}
	if stats.MaxCoalesced < 2 {
		t.Errorf("MaxCoalesced = %d: no cross-connection batch was ever formed", stats.MaxCoalesced)
	}
	if m.CoalescedBatch.Count() == 0 {
		t.Error("coalesced-batch histogram recorded nothing: batching did not reach telemetry")
	}
	if stats.PeakDepth > stats.MaxQueue {
		t.Errorf("peak intake depth %d exceeded the %d bound", stats.PeakDepth, stats.MaxQueue)
	}
	if stats.Sheds != 0 {
		t.Errorf("%d requests shed under nominal load", stats.Sheds)
	}
}

// TestDispatcherShutdownWithQueuedRequests cancels the server mid-window,
// while requests sit in the intake queue: every one of them must resolve —
// a response or an honest error, never a hang — and Serve itself must
// return. The watchdog turns a hang into a failure instead of a timeout.
func TestDispatcherShutdownWithQueuedRequests(t *testing.T) {
	const nBodies = 2
	ctx, cancel := context.WithCancel(context.Background())
	_, addr, errCh := startBatchingServer(t, ctx, nBodies,
		WithBatchWindow(300*time.Millisecond))

	const clients = 4
	var wg sync.WaitGroup
	outcomes := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				outcomes <- err
				return
			}
			defer client.Close()
			x := wireTensor(int64(200+id), 1, 4, 8, 8)
			_, _, err = client.Exchange(context.Background(), x)
			outcomes <- err // success and error are both acceptable; silence is not
		}(id)
	}
	// Let the requests reach the intake (the 300ms window guarantees they
	// are still queued), then pull the plug.
	time.Sleep(50 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("queued requests hung through shutdown")
	}
	close(outcomes)
	answered := 0
	for err := range outcomes {
		if err == nil {
			answered++
		}
	}
	// The drain guarantee is stronger than "no hang": a request that was
	// decoded before cancellation computes and flushes.
	if answered == 0 {
		t.Error("no queued request was answered through the drain")
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("Serve returned %v on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

// TestDispatcherFairnessAndShedding pits a pipelining firehose (raw wire,
// never waiting for responses) against a polite trickle client on a server
// with a tiny intake bound. Admission control must shed from the firehose —
// the longest queue — with the honest overload response, while the trickle
// client is never shed and its latency stays bounded by window + service,
// not by the firehose's backlog.
func TestDispatcherFairnessAndShedding(t *testing.T) {
	const (
		nBodies  = 2
		maxQueue = 4
		burst    = 48
	)
	m := NewServerMetrics(telemetry.NewRegistry())
	srv, addr, _ := startBatchingServer(t, context.Background(), nBodies,
		WithBatchWindow(10*time.Millisecond), WithMaxQueue(maxQueue), WithMetrics(m))

	// The firehose: hello, then `burst` request frames written back to back,
	// responses read only afterwards — per-connection pipelining no polite
	// client produces.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := helloBytes(wireVersion, 0)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 8)
	if _, err := io.ReadFull(conn, ack); err != nil {
		t.Fatal(err)
	}
	frame, err := appendRequest([]byte{0, 0, 0, 0}, &Request{Features: wireTensor(300, 1, 4, 8, 8)}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	fireDone := make(chan error, 1)
	sheds := make(chan int, 1)
	go func() {
		for i := 0; i < burst; i++ {
			if err := writeFrame(conn, frame); err != nil {
				fireDone <- err
				return
			}
		}
		// Every pipelined request must be answered — shed or served.
		shed := 0
		var decBuf []byte
		for i := 0; i < burst; i++ {
			var body []byte
			decBuf, body, err = readFrame(conn, decBuf)
			if err != nil {
				fireDone <- fmt.Errorf("response %d: %w", i, err)
				return
			}
			var resp Response
			if err := parseResponse(body, &resp, nil); err != nil {
				fireDone <- fmt.Errorf("response %d: %w", i, err)
				return
			}
			if resp.Code == CodeOverloaded {
				shed++
			} else if resp.Err != "" {
				fireDone <- fmt.Errorf("response %d: unexpected error %q", i, resp.Err)
				return
			}
		}
		sheds <- shed
		fireDone <- nil
	}()

	// The trickle client: sequential, one request at a time, against the
	// saturated server. Fairness means it is never the shed victim.
	trickle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer trickle.Close()
	x := wireTensor(301, 1, 4, 8, 8)
	const trickleReqs = 12
	var worst time.Duration
	for i := 0; i < trickleReqs; i++ {
		start := time.Now()
		_, _, err := trickle.Exchange(context.Background(), x)
		if d := time.Since(start); d > worst {
			worst = d
		}
		if err != nil {
			t.Fatalf("trickle request %d failed: %v (the polite client must never be shed)", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	select {
	case err := <-fireDone:
		if err != nil {
			t.Fatalf("firehose: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("firehose responses hung: a pipelined request was dropped without a reply")
	}
	if shed := <-sheds; shed == 0 {
		t.Error("firehose overfilled a 4-deep intake without a single shed")
	}

	stats := srv.DispatcherStats()
	if stats.Sheds == 0 || m.Shed.Value() == 0 {
		t.Errorf("shed counters (stats %d, telemetry %d) recorded nothing", stats.Sheds, m.Shed.Value())
	}
	if stats.PeakDepth > maxQueue {
		t.Errorf("peak intake depth %d exceeded the %d bound", stats.PeakDepth, maxQueue)
	}
	// Generous bound — race mode inflates compute 5-10× — but categorically
	// tighter than waiting out the firehose's 48-request backlog would be.
	if worst > 5*time.Second {
		t.Errorf("trickle client's worst latency %v: starved behind the firehose", worst)
	}
}

// TestDispatchCoalescedZeroAllocs extends the PR 5 invariant to the new
// path: decode K requests from K connections, serve them as one coalesced
// batch, encode every response — zero heap allocations at steady state.
func TestDispatchCoalescedZeroAllocs(t *testing.T) {
	const nBodies = 3
	srv := NewServer(codecBodies(nBodies), WithWorkers(2))
	loop := newServeLoop(t, srv, 4, &Request{Features: wireTensor(310, 2, 4, 8, 8)}, false)
	if allocs := loop.allocs(); allocs != 0 {
		t.Errorf("steady-state coalesced serve loop allocates %v times per batch, want 0", allocs)
	}
}

// TestCoalescedBatchErrorIsolation pins the validation semantics of a mixed
// batch: a member whose tensor lies about its shape gets its own error
// response while the valid members of the same batch are still served
// correctly.
func TestCoalescedBatchErrorIsolation(t *testing.T) {
	const nBodies = 2
	srv := NewServer(codecBodies(nBodies), WithWorkers(2))
	cache := srv.newBodyCache()

	good := jobFor(Request{Features: wireTensor(320, 1, 4, 8, 8)})
	bad := jobFor(Request{Features: &tensor.Tensor{Shape: []int{1, 4, 8, 8}, Data: make([]float64, 3)}})
	good2 := jobFor(Request{Features: wireTensor(321, 2, 4, 8, 8)})

	b := &dispatchBatch{jobs: []*job{good, bad, good2}}
	srv.serve(b.jobs, cache)

	resp := <-good.reply
	if p := payloadOf[float64](good); resp.Err != "" || !p.served || len(p.outputs[0]) != nBodies {
		t.Errorf("valid member 0 not served: err=%q", resp.Err)
	}
	if resp := <-bad.reply; resp.Err == "" {
		t.Error("lying member accepted into the stacked pass")
	}
	resp = <-good2.reply
	p2 := payloadOf[float64](good2)
	if resp.Err != "" || !p2.served || len(p2.outputs[0]) != nBodies {
		t.Fatalf("valid member 2 not served: err=%q", resp.Err)
	}
	want := referenceBodies(nBodies, p2.inputs[0])
	for i := range want {
		if !p2.outputs[0][i].AllClose(want[i], 0) {
			t.Errorf("member 2 body %d features diverge after mixed-batch split", i)
		}
	}
}

// TestFailBatchRepliesEveryPendingJob pins the panic-recovery backstop of
// the serve pass: failPending must put the error on every job that has no
// answer yet — and only those, so a member already answered (rejected during
// validation, or served before the panic) is not overwritten.
func TestFailBatchRepliesEveryPendingJob(t *testing.T) {
	rejected := newJob[float64]()
	rejected.resp = Response{Err: "already rejected"}
	served := newJob[float64]()
	payloadOf[float64](served).served = true
	pending := newJob[float64]()
	pending2 := newJob[float64]()
	jobs := []*job{rejected, pending, served, pending2}

	failPending(jobs, Response{Model: "m", Version: 2, Err: "stacked pass panicked"})
	for i, j := range []*job{pending, pending2} {
		if j.resp.Err != "stacked pass panicked" || j.resp.Model != "m" || j.resp.Version != 2 {
			t.Errorf("pending job %d resp = %+v, want the batch failure naming m v2", i, j.resp)
		}
	}
	if rejected.resp.Err != "already rejected" {
		t.Errorf("already-rejected job overwritten with %q", rejected.resp.Err)
	}
	if served.resp.Err != "" {
		t.Errorf("served job overwritten with %q", served.resp.Err)
	}
}

// BenchmarkServeRequestLoopBatched measures the coalesced serving loop —
// K cross-connection requests decoded, stacked, forwarded once, split, and
// encoded — and reports its allocation count, which CI pins at 0 allocs/op
// alongside BenchmarkServeRequestLoop.
func BenchmarkServeRequestLoopBatched(b *testing.B) { benchBatchedLoop(b, nil) }

// benchBatchedLoop runs BenchmarkServeRequestLoopBatched's loop — four bodies,
// K=4 one-row jobs per pass — with tr, when non-nil, tracing every leg.
func benchBatchedLoop(b *testing.B, tr *trace.Tracer) {
	const nBodies = 4
	srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithTracer(tr))
	loop := newServeLoop(b, srv, 4, &Request{Features: wireTensor(330, 1, 4, 8, 8)}, false)
	loop.tracer = tr
	loop.bench(b)
}
