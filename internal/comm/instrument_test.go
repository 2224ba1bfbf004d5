package comm

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
)

// instrumentBodies builds n tiny deterministic bodies (local helper — the
// commtest harness can't be imported from inside comm).
func instrumentBodies(n int) []*nn.Network {
	out := make([]*nn.Network, n)
	for i := range out {
		out[i] = nn.NewNetwork("b",
			nn.NewConv2D("c", 4, 4, 3, 1, 1, true, rng.New(int64(i+1))),
			nn.NewFlatten())
	}
	return out
}

func instrumentInput(rows int) *tensor.Tensor {
	x := tensor.New(rows, 4, 8, 8)
	rng.New(9).FillNormal(x.Data, 0, 1)
	return x
}

// recordingObserver captures every mirrored tensor's identity data.
type recordingObserver struct {
	mu    sync.Mutex
	calls []string
	rows  int
}

func (o *recordingObserver) ObserveFeatures(model string, version int, f *tensor.Tensor) {
	o.mu.Lock()
	o.calls = append(o.calls, model)
	o.rows += f.Shape[0]
	o.mu.Unlock()
}

// TestServerMetricsAndObserver drives plain, batched, and failing requests
// through an instrumented server and checks every series advances as
// specified — including that the observer saw one call per input tensor.
func TestServerMetricsAndObserver(t *testing.T) {
	treg := telemetry.NewRegistry()
	sm := NewServerMetrics(treg)
	obs := &recordingObserver{}
	srv := NewServer(instrumentBodies(2), WithMetrics(sm), WithObserver(obs))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		ln.Close()
		<-served
	}()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.ComputeFeatures = func(x *tensor.Tensor) *tensor.Tensor { return x }
	client.Select = nn.ConcatFeatures
	client.Tail = nn.NewNetwork("t", nn.NewLinear("fc", 2*4*8*8, 3, rng.New(5)))

	x := instrumentInput(2)
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.InferBatch(ctx, []*tensor.Tensor{x, x, x}); err != nil {
		t.Fatal(err)
	}
	// A failing request (wrong rank) still counts, as an error.
	bad := tensor.New(4, 8, 8)
	if _, _, err := client.Infer(ctx, bad); err == nil {
		t.Fatal("rank-3 features must be rejected")
	}

	if got := sm.Requests.Value(); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
	if got := sm.Errors.Value(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	// 2 rows + 3×2 rows; the rank-3 request contributes its leading dim (4).
	if got := sm.Images.Value(); got != 2+6+4 {
		t.Errorf("images = %d, want 12", got)
	}
	if got := sm.ServeSeconds.Count(); got != 3 {
		t.Errorf("serve histogram count = %d, want 3", got)
	}
	if got := sm.BatchInputs.Count(); got != 3 {
		t.Errorf("batch histogram count = %d, want 3", got)
	}

	// The observer saw the single request's tensor and each batched input,
	// but not the rank-3 garbage.
	obs.mu.Lock()
	calls, rows := len(obs.calls), obs.rows
	obs.mu.Unlock()
	if calls != 4 {
		t.Errorf("observer calls = %d, want 4 (1 single + 3 batched)", calls)
	}
	if rows != 8 {
		t.Errorf("observer rows = %d, want 8", rows)
	}

	var b strings.Builder
	if err := treg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ensembler_server_requests_total 3") {
		t.Errorf("exposition missing request counter:\n%s", b.String())
	}
}

// TestUninstrumentedServeUnchanged pins that a server constructed without
// WithMetrics/WithObserver behaves exactly as before (the options default to
// nil and the request path only nil-checks them).
func TestUninstrumentedServeUnchanged(t *testing.T) {
	srv := NewServer(instrumentBodies(2))
	resp := serveOne(srv, Request{Features: instrumentInput(1)})
	if resp.Err != "" {
		t.Fatalf("uninstrumented serve failed: %s", resp.Err)
	}
	if len(resp.Features) != 2 {
		t.Fatalf("got %d feature tensors, want 2", len(resp.Features))
	}
}

// TestObserverRejectsMaliciousShapes pins the trust boundary the review
// demands of the sampling hook: a request whose tensor claims an enormous
// shape over an empty data slice (cheap to transmit, catastrophic to
// allocate) must be rejected before it ever reaches the observer — the
// server answers with an error and keeps serving.
func TestObserverRejectsMaliciousShapes(t *testing.T) {
	obs := &recordingObserver{}
	srv := NewServer(instrumentBodies(2), WithObserver(obs))

	bomb := &tensor.Tensor{Shape: []int{1 << 30, 1 << 30, 2, 2}} // 2^62 claimed elements, no data
	for _, req := range []Request{
		{Features: bomb},
		{Inputs: []*tensor.Tensor{bomb, instrumentInput(1)}},
	} {
		resp := serveOne(srv, req)
		if resp.Err == "" {
			t.Errorf("request %+v must be rejected", req)
		}
	}
	// The well-formed input of the batched request was still safe to
	// mirror; the bomb never was.
	obs.mu.Lock()
	calls := len(obs.calls)
	obs.mu.Unlock()
	if calls != 1 {
		t.Errorf("observer saw %d tensors, want only the valid one", calls)
	}
	// The server still serves.
	if resp := serveOne(srv, Request{Features: instrumentInput(1)}); resp.Err != "" {
		t.Errorf("server dead after malicious request: %s", resp.Err)
	}
}
