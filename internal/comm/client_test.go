package comm

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"

	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
)

// scriptedBinary runs a hand-rolled server that acks the hello and answers
// each connection's i-th request with respond(i, request) — the untrusted
// peer of the client tests.
func scriptedBinary(t *testing.T, respond func(i int, req *Request) *Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var hello [8]byte
				if _, err := io.ReadFull(br, hello[:]); err != nil {
					return
				}
				ack := helloBytes(wireVersion, 0)
				if _, err := conn.Write(ack[:]); err != nil {
					return
				}
				var decBuf []byte
				for i := 0; ; i++ {
					var body []byte
					var err error
					decBuf, body, err = readFrame(br, decBuf)
					if err != nil {
						return
					}
					req, err := parseRequest(body, nil)
					if err != nil {
						return
					}
					buf, err := encodeResponse([]byte{0, 0, 0, 0}, respond(i, req), false, 0)
					if err != nil {
						return
					}
					if err := writeFrame(conn, buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// untrainedPipeline builds a fully wired pipeline without training it: the
// client tests need its mechanics, not its accuracy.
func untrainedPipeline(n, p int) *ensemble.Ensembler {
	return ensemble.New(ensemble.Config{Arch: tinyArch(), N: n, P: p, Sigma: 0.05, Lambda: 0.5, Seed: 7, Stage1Noise: true})
}

func images(seed int64, rows int) *tensor.Tensor {
	a := tinyArch()
	return wireTensor(seed, rows, a.InC, a.H, a.W)
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if err := bitsDiffer(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestRefusedResponseBytesAreCounted pins two things about a response that
// arrives whole and is then refused by the client (the server is the
// adversary: here it answers with one body too few): the Timing still carries
// the bytes it cost, and the connection — still synchronised — serves the
// next request correctly out of storage the refused one left dirty.
func TestRefusedResponseBytesAreCounted(t *testing.T) {
	e := untrainedPipeline(3, 2)
	bodies := e.CloneBodies()
	serve := func(f *tensor.Tensor) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(bodies))
		for i, b := range bodies {
			out[i] = b.Forward(f, false)
		}
		return out
	}
	addr := scriptedBinary(t, func(i int, req *Request) *Response {
		var resp Response
		if req.Inputs != nil {
			for _, in := range req.Inputs {
				resp.Outputs = append(resp.Outputs, serve(in))
			}
			if i%2 == 1 {
				for j, row := range resp.Outputs {
					resp.Outputs[j] = row[1:] // a ragged grid would not even encode
				}
			}
			return &resp
		}
		resp.Features = serve(req.Features)
		if i%2 == 1 {
			resp.Features = resp.Features[1:]
		}
		return &resp
	})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wireRuntime(client, e)
	ctx := context.Background()

	// Requests 0 and 2 are served honestly, 1 is one body short.
	for i := 0; i < 3; i++ {
		x := images(int64(500+i), 2)
		got, tm, err := client.Infer(ctx, x)
		if tm.BytesUp <= 0 || tm.BytesDown <= 0 {
			t.Errorf("request %d: byte accounting missing: %+v", i, tm)
		}
		if i == 1 {
			if err == nil {
				t.Fatal("a response one body short must be refused")
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		requireSameBits(t, "Infer", got, e.Predict(x))
	}
	// The same over the batched form: 3 is refused (every row a body short),
	// 4 served.
	xs := []*tensor.Tensor{images(510, 1), images(511, 2), images(512, 1)}
	for i := 3; i < 5; i++ {
		got, tm, err := client.InferBatch(ctx, xs)
		if tm.BytesUp <= 0 || tm.BytesDown <= 0 {
			t.Errorf("request %d: byte accounting missing: %+v", i, tm)
		}
		if i == 3 {
			if err == nil {
				t.Fatal("a batched response one body short must be refused")
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j, x := range xs {
			requireSameBits(t, "InferBatch", got[j], e.Predict(x))
		}
	}
}

// TestExchangeResultLifetimes pins who owns a decoded response: the Client's
// own Exchange hands out storage the next request reuses, a pooled exchange
// into the caller's Exchanged leaves a result that survives anything the
// released connection does next.
func TestExchangeResultLifetimes(t *testing.T) {
	const n = 2
	addr := startCodecServer(t, n)
	pool, err := NewPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	a, b := wireTensor(520, 1, 4, 8, 8), wireTensor(521, 1, 4, 8, 8)
	kept, _, err := pooledExchange(ctx, pool, a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tensor.Tensor, n)
	for i, f := range kept.Features {
		want[i] = f.Clone()
	}
	for i := 0; i < 3; i++ { // the pool's only connection answers other requests
		if _, _, err := pooledExchange(ctx, pool, b); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range kept.Features {
		requireSameBits(t, "pooled exchange result after later requests", f, want[i])
	}

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	first, _, err := client.Exchange(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range first.Features {
		requireSameBits(t, "Client.Exchange result before the next request", f, want[i])
	}
	second, _, err := client.Exchange(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("Client.Exchange must reuse the client's own Exchanged")
	}
}

// loopbackClient dials a real server over e's bodies and wires the client
// through a runtime of its own.
func loopbackClient(t testing.TB, e *ensemble.Ensembler) (*Client, *ensemble.ClientRuntime) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e.CloneBodies(), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		cancel()
		ln.Close()
		<-served
	})
	rt := e.NewClientRuntime()
	client.ComputeFeatures, client.Select, client.Tail = rt.Features, rt.Select, rt.Tail
	return client, rt
}

// Allocation ceilings of one warm request, server side included (it runs in
// this process and is pinned at zero by the serve-loop benchmarks). Infer
// pays for the logits it hands its caller — header, shape, data — and
// InferBatch for one such tensor per input plus the list.
const (
	inferAllocCeiling      = 3
	inferBatchAllocCeiling = 1 + 3*inferBatchInputs
	inferBatchInputs       = 4
)

// TestClientInferLoopAllocs pins the edge client's memory model: each piece
// of a request is allocation-free when looped on its own over warm storage,
// and a whole request allocates only what its caller keeps.
func TestClientInferLoopAllocs(t *testing.T) {
	e := untrainedPipeline(3, 2)
	client, rt := loopbackClient(t, e)
	ctx := context.Background()
	x := images(530, 1)
	xs := make([]*tensor.Tensor, inferBatchInputs)
	for i := range xs {
		xs[i] = images(int64(531+i), 1)
	}

	served := e.ServerCompute(e.ClientFeatures(x))
	frame, err := encodeResponse(nil, &Response{Model: "m", Version: 3, Features: served}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := encodeResponse(nil, &Response{Model: "m", Outputs: [][]*tensor.Tensor{served, served}}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	var arena tensor.Arena[float64]
	parse := func(body []byte) func() {
		return func() {
			arena.Reset()
			if err := parseResponseInto(body, &resp, nil, &arena); err != nil {
				t.Fatal(err)
			}
		}
	}
	sel := rt.Select(served).Clone()
	var tail nn.Scratch[float64]

	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"parse features frame", 0, parse(frame)},
		{"parse f32 outputs grid", 0, parse(grid)},
		{"tail", 0, func() { tail.Reset(); rt.Tail.ForwardInfer(sel, &tail) }},
		{"Client.Infer", inferAllocCeiling, func() {
			if _, _, err := client.Infer(ctx, x); err != nil {
				t.Fatal(err)
			}
		}},
		{"Client.InferBatch", inferBatchAllocCeiling, func() {
			if _, _, err := client.InferBatch(ctx, xs); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		c.f() // sizes the storage
		c.f() // first pass over it
		if allocs := testing.AllocsPerRun(100, c.f); allocs > c.ceiling {
			t.Errorf("warm %s allocates %v times per call, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}

// BenchmarkClientInferLoop is the edge client's whole request over loopback —
// head, noise, exchange, selection, tail — against a live server. CI holds
// its allocs/op to the ceiling TestClientInferLoopAllocs pins.
func BenchmarkClientInferLoop(b *testing.B) {
	client, _ := loopbackClient(b, untrainedPipeline(3, 2))
	ctx := context.Background()
	x := images(540, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := client.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
}
