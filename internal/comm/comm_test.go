package comm

import (
	"context"
	"net"
	"testing"

	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

func tinyArch() split.Arch {
	return split.Arch{InC: 3, H: 8, W: 8, HeadC: 4, BlockWidths: []int{8, 16}, Classes: 4, UseMaxPool: true}
}

// startServer spins a loopback TCP server over the given bodies and returns
// its address.
func startServer(t *testing.T, bodies []*nn.Network) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(bodies).Serve(context.Background(), ln)
	return ln.Addr().String()
}

// buildPipeline trains a tiny ensemble and returns it with its dataset.
func buildPipeline(t *testing.T) (*ensemble.Ensembler, *data.Dataset) {
	t.Helper()
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, W: 8, Train: 64, Aux: 16, Test: 32, Seed: 5})
	for _, ds := range []*data.Dataset{sp.Train, sp.Test} {
		ds.Classes = 4
		for i, l := range ds.Labels {
			ds.Labels[i] = l % 4
		}
	}
	cfg := ensemble.Config{
		Arch: tinyArch(), N: 3, P: 2, Sigma: 0.05, Lambda: 0.5, Seed: 7,
		Stage1:      split.TrainOptions{Epochs: 2, BatchSize: 16, LR: 0.05},
		Stage3:      split.TrainOptions{Epochs: 2, BatchSize: 16, LR: 0.05},
		Stage1Noise: true,
	}
	return ensemble.Train(cfg, sp.Train, nil), sp.Test
}

// wire connects a client to the trained pipeline's client-side functions.
// The live networks cache forward state, so this form is for one client at a
// time; concurrent clients use wireRuntime.
func wire(c *Client, e *ensemble.Ensembler) {
	c.ComputeFeatures = e.ClientFeatures
	c.Select = e.Selector.Apply
	c.Tail = e.Tail
}

// wireRuntime wires a client through its own cloned copy of the client-side
// networks, making it independent of every other client.
func wireRuntime(c *Client, e *ensemble.Ensembler) {
	rt := e.NewClientRuntime()
	c.ComputeFeatures = rt.Features
	c.Select = rt.Select
	c.Tail = rt.Tail
}

func TestRemoteInferenceMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("network + training smoke test")
	}
	e, test := buildPipeline(t)
	addr := startServer(t, e.Bodies())
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wire(client, e)

	x, _ := test.Batch([]int{0, 1, 2, 3})
	remote, timing, err := client.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	local := e.Predict(x)
	if !remote.AllClose(local, 1e-9) {
		t.Error("remote inference must match local pipeline exactly")
	}
	if timing.BytesUp <= 0 || timing.BytesDown <= 0 {
		t.Errorf("byte accounting missing: %+v", timing)
	}
	// The server returns N bodies' features; downstream bytes must exceed
	// the per-body feature payload at least N-fold (framing aside).
	minDown := 4 * e.Cfg.Arch.FeatureDim() * e.Cfg.N // 4 images ≈ even more
	if timing.BytesDown < minDown {
		t.Errorf("down bytes %d suspiciously small (< %d)", timing.BytesDown, minDown)
	}
}

func TestMultipleRequestsOneConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("network + training smoke test")
	}
	e, test := buildPipeline(t)
	addr := startServer(t, e.Bodies())
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wire(client, e)
	for i := 0; i < 3; i++ {
		x, _ := test.Batch([]int{i})
		if _, _, err := client.Infer(context.Background(), x); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("network + training smoke test")
	}
	e, test := buildPipeline(t)
	addr := startServer(t, e.Bodies())
	x, _ := test.Batch([]int{0, 1})
	want := e.Predict(x)

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			client, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer client.Close()
			wireRuntime(client, e)
			got, _, err := client.Infer(context.Background(), x)
			if err == nil && !got.AllClose(want, 1e-9) {
				err = errMismatch
			}
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result mismatch" }

func TestServerRejectsBadRequest(t *testing.T) {
	r := rng.New(1)
	body := tinyArch().NewBody("b", r)
	s := NewServer([]*nn.Network{body})
	resp := serveOne(s, Request{Features: nil})
	if resp.Err == "" {
		t.Error("nil features must be rejected")
	}
	bad := tensor.New(2, 2) // wrong rank
	resp = serveOne(s, Request{Features: bad})
	if resp.Err == "" {
		t.Error("non-NCHW features must be rejected")
	}
}

func TestNewServerPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewServer(nil)
}
