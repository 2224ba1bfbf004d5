package comm_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// These tests exercise the concurrent serving path through the exported API
// only, over the commtest harness: untrained seeded networks that rebuild
// bit-identically, which is what lets every client check its results
// against a locally computed reference.

var tiny = commtest.TinyArch()

// startConcurrentServer runs a worker-pool server and returns its address
// plus the channel Serve's result lands on.
func startConcurrentServer(t *testing.T, ctx context.Context, n, workers int, opts ...comm.ServerOption) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	opts = append([]comm.ServerOption{
		comm.WithWorkers(workers),
	}, opts...)
	srv := comm.NewServer(commtest.Bodies(tiny, n), opts...)
	if srv.Workers() != workers {
		t.Fatalf("workers = %d, want %d", srv.Workers(), workers)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), errCh
}

// dialWired dials the server and wires the raw-protocol client.
func dialWired(t *testing.T, addr string, n int) *comm.Client {
	t.Helper()
	client, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	commtest.Wire(client, tiny, n)
	return client
}

// TestConcurrentMixedClients hammers a worker-pool server with
// simultaneous clients issuing a mix of 2-row and 6-row requests, every one
// of which must match the locally computed reference bit-for-bit.
func TestConcurrentMixedClients(t *testing.T) {
	const (
		nBodies = 3
		clients = 10
		rounds  = 4
	)
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 4)

	xs := []*tensor.Tensor{commtest.Input(tiny, 50, 2), commtest.Input(tiny, 51, 6)}
	wants := []*tensor.Tensor{commtest.Reference(tiny, nBodies, xs[0]), commtest.Reference(tiny, nBodies, xs[1])}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := comm.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			x, want := xs[id%2], wants[id%2]
			for round := 0; round < rounds; round++ {
				got, _, err := client.Infer(ctx, x)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
					return
				}
				if !got.AllClose(want, 1e-12) {
					errs <- fmt.Errorf("client %d round %d: %d-row result diverged", id, round, x.Shape[0])
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolConcurrentInference drives a connection pool from more goroutines
// than it has connections, each exchange decoding into its caller's own
// Exchanged; every caller's features must match the bodies' bit for bit.
func TestPoolConcurrentInference(t *testing.T) {
	const nBodies = 3
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 2)

	pool, err := comm.NewPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := commtest.Input(tiny, 51, 1)
	var want []*tensor.Tensor
	for _, b := range commtest.Bodies(tiny, nBodies) {
		want = append(want, b.Forward(x, false))
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ex comm.Exchanged
			for round := 0; round < 3; round++ {
				if _, err := pool.ExchangeTraced(ctx, x, trace.Context{}, &ex); err != nil {
					errs <- err
					return
				}
				for k, f := range ex.Features {
					if !f.AllClose(want[k], 0) {
						errs <- fmt.Errorf("goroutine %d round %d: body %d features diverged", i, round, k)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownMidFlight cancels the server context while clients are
// hammering it: Serve must return promptly and cleanly, in-flight requests
// must either complete or fail with an error (never hang), and the listener
// must stop accepting.
func TestShutdownMidFlight(t *testing.T) {
	const nBodies = 3
	ctx, cancel := context.WithCancel(context.Background())
	addr, errCh := startConcurrentServer(t, ctx, nBodies, 2)

	x := commtest.Input(tiny, 52, 2)
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := comm.Dial(addr)
			if err != nil {
				once.Do(func() { close(started) })
				return
			}
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			for {
				if _, _, err := client.Infer(context.Background(), x); err != nil {
					return // shutdown reached this connection
				}
				once.Do(func() { close(started) })
			}
		}()
	}

	<-started // at least one request fully served before pulling the plug
	cancel()

	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("graceful shutdown must return nil, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of cancellation")
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clients still blocked 5s after shutdown")
	}

	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		// Accepting stopped, so either the dial fails outright or the
		// connection is immediately dead; a request must not succeed.
		client, err := comm.Dial(addr)
		if err == nil {
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			cctx, ccancel := context.WithTimeout(context.Background(), time.Second)
			defer ccancel()
			if _, _, err := client.Infer(cctx, x); err == nil {
				t.Error("server answered a request after shutdown")
			}
		}
	}
}

// TestShutdownWithNonDrainingClient connects a client that floods requests
// but never reads a single response: its connection's send side eventually
// backs up, and shutdown must still complete via the drain-timeout
// force-close rather than hanging on the blocked writer.
func TestShutdownWithNonDrainingClient(t *testing.T) {
	const nBodies = 3
	ctx, cancel := context.WithCancel(context.Background())
	addr, errCh := startConcurrentServer(t, ctx, nBodies, 2, comm.WithDrainTimeout(300*time.Millisecond))

	conn := rawDial(t, addr)
	conn.SetDeadline(time.Time{})
	// Flood from a goroutine: once the server stops reading, our own writes
	// block too, so the flood must be bounded by the connection failing.
	flooding := make(chan struct{})
	go func() {
		defer close(flooding)
		frame := rawFrame(rawRequestHead(0, 1), rawHonestTensor(commtest.Input(tiny, 60, 8)))
		for i := 0; i < 10000; i++ {
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond) // let requests pile up unread
	cancel()

	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("shutdown with a non-draining client must return nil, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve hung on a client that never reads responses")
	}
	conn.Close()
	select {
	case <-flooding:
	case <-time.After(5 * time.Second):
		t.Fatal("flooding client still blocked after its connection was closed")
	}
}

// TestInferHonorsContext checks per-request deadlines, pre-cancelled
// contexts, and that a context abort mid-flight breaks the connection
// rather than leaving a desynchronized stream behind.
func TestInferHonorsContext(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1)

	client := dialWired(t, addr, nBodies)
	x := commtest.Input(tiny, 53, 1)

	// A pre-cancelled context fails before any I/O and must NOT poison the
	// connection.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.Infer(cancelled, x); err == nil {
		t.Error("pre-cancelled context must fail the request")
	}
	// A generous deadline must not interfere with a healthy request.
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Errorf("deadline-bearing request failed: %v", err)
	}
}

// TestAbortedRequestBreaksClient pins the stale-response defense: a request
// aborted mid-flight leaves the stream in an unknown state, so the client
// must refuse further use instead of silently pairing the next request with
// the previous response.
func TestAbortedRequestBreaksClient(t *testing.T) {
	// A listener that accepts and reads but never responds: the request
	// will always time out mid-decode.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Complete the wire negotiation (echoing the client's hello
				// verbatim is a valid ack), then go mute: requests are read
				// and never answered.
				hello := make([]byte, 8)
				if _, err := io.ReadFull(conn, hello); err != nil {
					return
				}
				if _, err := conn.Write(hello); err != nil {
					return
				}
				buf := make([]byte, 1<<16)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	client, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	commtest.Wire(client, tiny, 1)
	x := commtest.Input(tiny, 58, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := client.Infer(ctx, x); err == nil {
		t.Fatal("request against a mute server must time out")
	}
	if _, _, err := client.Infer(context.Background(), x); err == nil {
		t.Error("client must be broken after an aborted request")
	}
}

// TestMalformedTensorsDoNotKillServer sends hostile payloads straight over
// the wire. A tensor that lies about its own structure never leaves the frame
// parser — the connection is dropped, nothing is allocated for it — while one
// that is honest about a shape the bodies cannot take gets an error response
// on a connection that stays usable; either way the server keeps serving.
func TestMalformedTensorsDoNotKillServer(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1)

	for _, c := range []struct {
		name     string
		frame    []byte
		answered bool
	}{
		{"zero dimension", rawFrame(rawRequestHead(0, 1), rawTensor([]uint32{0, 3, 8, 8}, nil)), false},
		{"dims claim more than the payload holds", rawFrame(rawRequestHead(0, 1), rawTensor([]uint32{1, 4, 8, 8}, make([]float64, 5))), false},
		{"payload holds more than the dims claim", rawFrame(rawRequestHead(0, 1), rawTensor([]uint32{1, 1, 2, 2}, make([]float64, 5))), false},
		{"announcing more tensors than one", rawFrame(rawRequestHead(0, 2), rawTensor([]uint32{1, 4, 8, 8}, make([]float64, 256))), false},
		{"wrong rank", rawFrame(rawRequestHead(0, 1), rawTensor([]uint32{4, 64}, make([]float64, 256))), true},
		// Wrong channels: structurally honest, panics inside the body.
		{"wrong channels", rawFrame(rawRequestHead(0, 1), rawTensor([]uint32{1, 7, 8, 8}, make([]float64, 7*64))), true},
	} {
		conn := rawDial(t, addr)
		for round := 0; round < 2; round++ { // an answered connection takes the next request too
			if _, err := conn.Write(c.frame); err != nil {
				t.Fatalf("%s: send: %v", c.name, err)
			}
			body, err := rawReadFrame(conn)
			if !c.answered {
				if err == nil {
					t.Errorf("%s: structural lie answered (%q) instead of dropped", c.name, rawResponseErr(t, body))
				}
				break
			}
			if err != nil {
				t.Fatalf("%s: server dropped the connection instead of answering: %v", c.name, err)
			}
			if rawResponseErr(t, body) == "" {
				t.Errorf("%s: hostile tensor accepted", c.name)
			}
		}
		conn.Close()
	}

	// The server must still be alive for well-formed clients.
	client := dialWired(t, addr, nBodies)
	x := commtest.Input(tiny, 59, 1)
	if _, _, err := client.Infer(context.Background(), x); err != nil {
		t.Errorf("healthy request after hostile payloads failed: %v", err)
	}
}

// TestFanoutPanicInLaterBodyClearsForNextRequest: on a single-worker server
// the bodies fan out over min(N, GOMAXPROCS) tasks, and a request that
// panics in any body — or in every body but the first — must fail alone:
// the pass joins every task before refusing it, and the next, healthy
// request on the same connection is answered bit-exactly, not with a stale
// panic. There are more bodies than GOMAXPROCS, so tasks take several
// bodies each and a task whose body panicked leaves its remaining bodies to
// the others.
func TestFanoutPanicInLaterBodyClearsForNextRequest(t *testing.T) {
	n := runtime.GOMAXPROCS(0) + 3
	// bodies builds the n bodies: those named in strict want tiny.HeadC
	// channels, the rest take any count.
	bodies := func(strict ...int) []*nn.Network {
		out := make([]*nn.Network, n)
		seeded := commtest.Bodies(tiny, n)
		for i := range out {
			out[i] = nn.NewNetwork("any", nn.NewReLU())
		}
		for _, i := range strict {
			out[i] = seeded[i]
		}
		return out
	}
	cases := map[string][]int{}
	for k := range n {
		cases[fmt.Sprintf("body %d", k)] = []int{k}
	}
	var allButFirst []int
	for k := 1; k < n; k++ {
		allButFirst = append(allButFirst, k)
	}
	cases["every body but 0"] = allButFirst
	for name, strict := range cases {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			srv := comm.NewServer(bodies(strict...), comm.WithWorkers(1))
			if srv.Workers() != 1 {
				t.Fatalf("workers = %d, want the single-worker fan-out", srv.Workers())
			}
			go srv.Serve(context.Background(), ln)

			client, err := comm.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			ctx := context.Background()
			x := commtest.Input(tiny, 67, 1)
			ref := bodies(strict...)
			for round := 0; round < 2; round++ {
				wrong := tensor.New(1, tiny.HeadC+3, tiny.H, tiny.W)
				if _, _, err := client.Exchange(ctx, wrong); err == nil {
					t.Fatalf("round %d: a request bodies %v cannot take was answered", round, strict)
				}
				ex, _, err := client.Exchange(ctx, x)
				if err != nil {
					t.Fatalf("round %d: healthy request after a body panic failed: %v", round, err)
				}
				if len(ex.Features) != len(ref) {
					t.Fatalf("round %d: %d feature tensors, want %d", round, len(ex.Features), len(ref))
				}
				for i, b := range ref {
					if err := comm.BitsDiffer(ex.Features[i], b.Forward(x, false)); err != nil {
						t.Errorf("round %d: body %d features: %v", round, i, err)
					}
				}
			}
		})
	}
}

// TestPoolRecoversFromBrokenConnections pins the waiter-wakeup path: when
// every connection breaks while other callers are queued at capacity, the
// queued callers must wake up and redial instead of hanging forever.
func TestPoolRecoversFromBrokenConnections(t *testing.T) {
	// A server that accepts and immediately closes: every request fails
	// fast with a transport error, breaking its connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	pool, err := comm.NewPool(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	x := commtest.Input(tiny, 61, 1)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every request must fail with an error — never hang, even for
			// the goroutines that queued while the pool was at capacity.
			var ex comm.Exchanged
			if _, err := pool.ExchangeTraced(context.Background(), x, trace.Context{}, &ex); err == nil {
				t.Error("request against a slamming server must fail")
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool waiters hung after all connections broke")
	}
}

// TestPoolKeepsConnectionAfterBenignError checks that server-side
// rejections (which leave the stream synchronized) do not cost the pool
// its connection.
func TestPoolKeepsConnectionAfterBenignError(t *testing.T) {
	const nBodies = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts := &countingListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- comm.NewServer(commtest.Bodies(tiny, nBodies)).Serve(ctx, accepts) }()
	defer func() { cancel(); ln.Close(); <-served }()

	pool, err := comm.NewPool(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var ex comm.Exchanged
	// Features of the wrong channel count: the server answers with an error
	// over a synchronized stream.
	wrong := commtest.Input(tiny, 62, 1).Reshape(1, 2*tiny.HeadC, tiny.H/2, tiny.W)
	if _, err := pool.ExchangeTraced(ctx, wrong, trace.Context{}, &ex); err == nil {
		t.Fatal("features of the wrong shape must be rejected")
	}
	if _, err := pool.ExchangeTraced(ctx, commtest.Input(tiny, 62, 1), trace.Context{}, &ex); err != nil {
		t.Fatalf("healthy request after a benign rejection failed: %v", err)
	}
	if n := accepts.n.Load(); n != 1 {
		t.Errorf("pool redialed after a benign error: %d dials, want 1", n)
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestClientRejectsHostileResponses plays a malicious server: responses
// whose tensors lie about their shape, go missing, or mismatch what the
// selector and tail expect must produce errors, not client panics — the
// structural lies at the frame parser, the rest in the client's validation of
// what it decoded.
func TestClientRejectsHostileResponses(t *testing.T) {
	honest := rawTensor([]uint32{1, 16}, make([]float64, 16))
	x := commtest.Input(tiny, 63, 1)
	infer := func(frame []byte) error {
		addr := rawServer(t, rawHello(4, 0), func(int) []byte { return frame })
		client, err := comm.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		commtest.Wire(client, tiny, 1)
		_, _, err = client.Infer(context.Background(), x)
		return err
	}
	// The harness itself is sound: the response the client is wired for passes.
	if err := infer(rawFrame(rawResponseHead(1), honest)); err != nil {
		t.Fatalf("honest response refused: %v", err)
	}
	for name, frame := range map[string][]byte{
		"announced tensor missing":  rawFrame(rawResponseHead(1)),
		"zero dimension":            rawFrame(rawResponseHead(1), rawTensor([]uint32{0, 16}, nil)),
		"dims claim more than sent": rawFrame(rawResponseHead(1), rawTensor([]uint32{1, 16}, make([]float64, 3))),
		"unannounced second tensor": rawFrame(rawResponseHead(1), honest, honest),
		// Structurally honest, wrong for the concat-all selector's tail (wired for 1 body of 16).
		"one body too many": rawFrame(rawResponseHead(2), honest, honest),
		"no bodies":         rawFrame(rawResponseHead(0)),
		"wrong width":       rawFrame(rawResponseHead(1), rawTensor([]uint32{1, 8}, make([]float64, 8))),
	} {
		if err := infer(frame); err == nil {
			t.Errorf("%s: hostile response accepted", name)
		}
	}
}

// TestRetiredBatchedKindDropsItsConnection pins the server side of the
// retired client-batched request kind (0x01): a frame of it, honest in every
// other byte, ends its own connection unanswered, as every frame the parser
// refuses does, while a second connection is served bit-exactly before and
// after.
func TestRetiredBatchedKindDropsItsConnection(t *testing.T) {
	const nBodies = 2
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 1)
	client := dialWired(t, addr, nBodies)
	ctx := context.Background()
	x := commtest.Input(tiny, 54, 2)
	want := commtest.Reference(tiny, nBodies, x)
	infer := func(when string) {
		t.Helper()
		got, _, err := client.Infer(ctx, x)
		if err != nil {
			t.Fatalf("%s the retired frame: %v", when, err)
		}
		if !got.AllClose(want, 1e-12) {
			t.Fatalf("%s the retired frame: result diverged", when)
		}
	}
	infer("before")
	conn := rawDial(t, addr)
	if _, err := conn.Write(rawFrame(rawRequestHead(1, 1), rawTensor([]uint32{1, 4, 8, 8}, make([]float64, 256)))); err != nil {
		t.Fatal(err)
	}
	if body, err := rawReadFrame(conn); err == nil {
		t.Errorf("retired batched kind answered (%q) instead of dropped", rawResponseErr(t, body))
	}
	infer("after")
}

// TestDialContextCancelAbortsHello pins the negotiation's cancellation
// path: a cancellable (deadline-less) context must abort a hello blocked on
// a server that accepts the connection but never acks, promptly rather than
// after the 10-second default handshake timeout.
func TestDialContextCancelAbortsHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open without ever answering the hello.
			defer conn.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = comm.DialContext(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("dial against a mute negotiator must fail on cancellation")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("cancelled dial took %v, want prompt abort", d)
	}
}
