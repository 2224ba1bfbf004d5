package comm_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// bodyReference computes what a commtest-wired client must receive from a
// server hosting the pipeline's bodies: identity features in, concat-all
// selection and the deterministic tail over every body's output.
func bodyReference(e *ensemble.Ensembler, x *tensor.Tensor) *tensor.Tensor {
	bodies := e.Bodies()
	feats := make([]*tensor.Tensor, len(bodies))
	for i, b := range bodies {
		feats[i] = b.Forward(x, false)
	}
	return commtest.Tail(tiny, len(bodies)).Forward(nn.ConcatFeatures(feats), false)
}

// TestHotSwapUnderConcurrentLoad is the acceptance scenario of the registry
// subsystem: a running server under load from 8 concurrent clients takes a
// Publish of a brand-new model version and then a RotateSelector, with zero
// failed requests. Every response must bit-match the reference of the
// version the server says it served, and every client must eventually
// observe the final epoch — the swap is total as well as lossless.
func TestHotSwapUnderConcurrentLoad(t *testing.T) {
	const (
		nBodies = 3
		clients = 8
	)
	e1 := commtest.Pipeline(tiny, nBodies, 2, 101)
	e2 := commtest.Pipeline(tiny, nBodies, 2, 202)
	x := commtest.Input(tiny, 103, 2)

	// Version 3 is a selector rotation of version 2: same bodies by design,
	// so its wire-visible reference equals version 2's. Computed before any
	// load starts so the primaries' forward caches are never shared.
	refs := map[int]*tensor.Tensor{
		1: bodyReference(e1, x),
		2: bodyReference(e2, x),
	}
	refs[3] = refs[2]

	reg := registry.New(nil)
	if _, err := reg.Publish("m", e1); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := comm.NewModelServer(reg, comm.WithWorkers(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	var (
		failed   atomic.Int64 // must stay zero: the hot-swap guarantee
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	stop := make(chan struct{})
	errs := make(chan error, clients)
	sawFinal := make([]atomic.Bool, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := comm.Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				failed.Add(1)
				return
			}
			defer client.Close()
			commtest.Wire(client, tiny, nBodies)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := client.Infer(context.Background(), x)
				if err != nil {
					failed.Add(1)
					errs <- fmt.Errorf("client %d: %w", id, err)
					return
				}
				requests.Add(1)
				model, version := client.Served()
				want := refs[version]
				if model != "m" || want == nil {
					failed.Add(1)
					errs <- fmt.Errorf("client %d: served unexpected %s v%d", id, model, version)
					return
				}
				if !got.AllClose(want, 1e-12) {
					failed.Add(1)
					errs <- fmt.Errorf("client %d: result diverges from v%d reference", id, version)
					return
				}
				if version == 3 {
					sawFinal[id].Store(true)
				}
			}
		}(id)
	}

	// Let traffic flow on v1, hot-publish v2, keep the load up, then rotate
	// the selector (v3). Neither swap may fail a single request.
	time.Sleep(50 * time.Millisecond)
	if _, err := reg.Publish("m", e2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := reg.RotateSelector("m", ensemble.RotateOptions{Seed: 104}); err != nil {
		t.Fatal(err)
	}

	// Run until every client has served at least one request on the final
	// epoch — proof the swap reached the whole worker pool.
	deadline := time.After(10 * time.Second)
	for {
		all := true
		for i := range sawFinal {
			if !sawFinal[i].Load() {
				all = false
			}
		}
		if all {
			break
		}
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatal("not every client observed the final epoch within 10s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := failed.Load(); n != 0 {
		t.Errorf("hot swap dropped %d requests, want 0", n)
	}
	if requests.Load() == 0 {
		t.Error("no requests served")
	}

	cancel()
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// TestVersionPinning checks that a client asking for a superseded version
// keeps getting it after a publish moves current — multi-version routing on
// one socket.
func TestVersionPinning(t *testing.T) {
	const nBodies = 3
	e1 := commtest.Pipeline(tiny, nBodies, 2, 111)
	e2 := commtest.Pipeline(tiny, nBodies, 2, 222)
	x := commtest.Input(tiny, 113, 1)
	ref1, ref2 := bodyReference(e1, x), bodyReference(e2, x)

	reg := registry.New(nil)
	if _, err := reg.Publish("m", e1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", e2); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := comm.NewModelServer(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	client := dialWired(t, ln.Addr().String(), nBodies)

	// Header-less: current version.
	got, _, err := client.Infer(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(ref2, 1e-12) {
		t.Error("default routing did not serve the current version")
	}
	if _, v := client.Served(); v != 2 {
		t.Errorf("served version = %d, want 2", v)
	}
	batch, _, err := client.InferBatch(ctx, []*tensor.Tensor{x, x})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range batch {
		if !got.AllClose(ref2, 1e-12) {
			t.Errorf("default routing did not serve batched input %d from the current version", i)
		}
	}

	// Pinned: the superseded version, on the same connection.
	client.Model, client.Version = "m", 1
	got, _, err = client.Infer(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(ref1, 1e-12) {
		t.Error("pinned routing did not serve version 1")
	}
	if _, v := client.Served(); v != 1 {
		t.Errorf("served version = %d, want 1", v)
	}

	// Unknown model and unknown version are benign protocol errors: the
	// connection survives.
	client.Model, client.Version = "ghost", 0
	if _, _, err := client.Infer(ctx, x); err == nil {
		t.Error("unknown model must be rejected")
	}
	client.Model, client.Version = "m", 42
	if _, _, err := client.Infer(ctx, x); err == nil {
		t.Error("unknown version must be rejected")
	}
	client.Model, client.Version = "", 0
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Errorf("connection must survive routing rejections: %v", err)
	}

	cancel()
	<-served
}

// TestPoolReconfigureMidTraffic drives the client-side half of a hot swap: a
// pool under concurrent load is re-pointed at a new wiring, no request
// fails, and traffic converges to the new configuration.
func TestPoolReconfigureMidTraffic(t *testing.T) {
	const nBodies = 3
	addr, _ := startConcurrentServer(t, context.Background(), nBodies, 2)

	x := commtest.Input(tiny, 121, 1)
	want1 := commtest.Reference(tiny, nBodies, x)
	// The rewired pool doubles the selected features; the tail is linear, so
	// the expected logits double too.
	want2 := want1.Scale(2)

	pool, err := comm.NewPool(addr, 4, func(c *comm.Client) error {
		commtest.Wire(c, tiny, nBodies)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		failed  atomic.Int64
		swapped atomic.Int64
	)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := pool.Infer(context.Background(), x)
				if err != nil {
					failed.Add(1)
					errs <- fmt.Errorf("goroutine %d: %w", i, err)
					return
				}
				switch {
				case got.AllClose(want1, 1e-12):
				case got.AllClose(want2, 1e-12):
					swapped.Add(1)
				default:
					failed.Add(1)
					errs <- fmt.Errorf("goroutine %d: result matches neither wiring", i)
					return
				}
			}
		}(i)
	}

	time.Sleep(30 * time.Millisecond)
	pool.Reconfigure(func(c *comm.Client) error {
		commtest.Wire(c, tiny, nBodies)
		inner := c.Select
		c.Select = func(features []*tensor.Tensor) *tensor.Tensor {
			return inner(features).Scale(2)
		}
		return nil
	})

	deadline := time.After(10 * time.Second)
	for swapped.Load() < 8 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("pool served only %d new-wiring results within 10s", swapped.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := failed.Load(); n != 0 {
		t.Errorf("reconfigure dropped %d requests, want 0", n)
	}
}

// TestSubsetProviderCachesPerEpoch pins the shard server's per-request
// resolve: within one epoch the subset provider hands out one cached
// restriction (no allocation per request), and the first resolve after a
// publish or a selector rotation hands out a fresh one carrying the new
// epoch's identity — so a shard's compiled bodies swap on the same trigger as
// a monolith's. Concurrent resolves race the swaps under -race.
func TestSubsetProviderCachesPerEpoch(t *testing.T) {
	reg := registry.New(nil)
	if _, err := reg.Publish("m", commtest.Pipeline(tiny, 4, 2, 81)); err != nil {
		t.Fatal(err)
	}
	p, err := comm.NewSubsetProvider(reg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func() comm.ServedModel {
		m, err := p.Resolve("", 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	prev := resolve()
	if again := resolve(); again != prev {
		t.Error("two resolves of one epoch built two subset models")
	}

	swaps := []func() (*registry.Epoch, error){
		func() (*registry.Epoch, error) { return reg.Publish("m", commtest.Pipeline(tiny, 4, 2, 82)) },
		func() (*registry.Epoch, error) { return reg.RotateSelector("m", ensemble.RotateOptions{Seed: 83}) },
	}
	for i, swap := range swaps {
		ep, err := swap()
		if err != nil {
			t.Fatal(err)
		}
		m := resolve()
		if m == prev {
			t.Errorf("swap %d: the subset model of the retired epoch was handed out again", i)
		}
		if m.Seq() != ep.Seq() || m.Version() != ep.Version() || m.Name() != ep.Name() {
			t.Errorf("swap %d: resolved %s v%d seq %d, want %s v%d seq %d",
				i, m.Name(), m.Version(), m.Seq(), ep.Name(), ep.Version(), ep.Seq())
		}
		if again := resolve(); again != m {
			t.Errorf("swap %d: two resolves of the new epoch built two subset models", i)
		}
		prev = m
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m, err := p.Resolve("", 0)
				if err != nil {
					t.Error(err)
					return
				}
				if got := len(m.Bodies()); i%50 == 0 && got != 2 {
					t.Errorf("subset serves %d bodies, want 2", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if _, err := reg.RotateSelector("m", ensemble.RotateOptions{Seed: int64(90 + i)}); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	cur, err := reg.Current("m")
	if err != nil {
		t.Fatal(err)
	}
	if m := resolve(); m.Seq() != cur.Seq() {
		t.Errorf("after the concurrent rotations resolved seq %d, want the current %d", m.Seq(), cur.Seq())
	}
}

// countingProvider counts the Bodies calls servers make through it: one per
// body generation compiled.
type countingProvider struct {
	comm.ModelProvider
	compiles atomic.Int64
}

func (p *countingProvider) Resolve(model string, version int) (comm.ServedModel, error) {
	m, err := p.ModelProvider.Resolve(model, version)
	if err != nil {
		return nil, err
	}
	return countingModel{m, &p.compiles}, nil
}

type countingModel struct {
	comm.ServedModel
	compiles *atomic.Int64
}

func (m countingModel) Bodies() []*nn.Network {
	m.compiles.Add(1)
	return m.ServedModel.Bodies()
}

// servedBy computes what a server hosting bodies [lo, hi) of e answers for
// features f: each body's output, at f32 through the body's float32
// compilation on the narrowed input, widened back exactly.
func servedBy(t *testing.T, e *ensemble.Ensembler, f *tensor.Tensor, lo, hi int, f32 bool) []*tensor.Tensor {
	t.Helper()
	out := make([]*tensor.Tensor, 0, hi-lo)
	for _, b := range e.CloneBodies()[lo:hi] {
		if !f32 {
			out = append(out, b.Forward(f, false))
			continue
		}
		n32, err := nn.CompileF32(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tensor.Widen64(n32.ForwardInfer(tensor.Narrow32(f), new(nn.Scratch[float32]))))
	}
	return out
}

// TestReplicasSurviveRotation pins what a rotation sharing its parent's
// bodies buys the server: the rotated epoch keeps the parent's body
// generation (Seq), so nothing recompiles — a monolith at f64 or f32, or a
// shard behind a subset provider. Every response names the rotated version
// and is bit-exact against the rotated pipeline, the server compiles the
// bodies once however many workers it has and however often the selector
// rotates, and the first server compute on a rotated version allocates
// nothing.
func TestReplicasSurviveRotation(t *testing.T) {
	const n, workers, rotations = 4, 2, 3
	for _, tc := range []struct {
		name   string
		f32    bool
		lo, hi int // the shard's body range; 0, 0 hosts all n
	}{
		{name: "f64"},
		{name: "f32", f32: true},
		{name: "shard", lo: 1, hi: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := registry.New(nil)
			if _, err := reg.Publish("m", commtest.Pipeline(tiny, n, 2, 131)); err != nil {
				t.Fatal(err)
			}
			lo, hi := 0, n
			var inner comm.ModelProvider = reg
			if tc.hi > 0 {
				lo, hi = tc.lo, tc.hi
				var err error
				if inner, err = comm.NewSubsetProvider(reg, lo, hi); err != nil {
					t.Fatal(err)
				}
			}
			opts := []comm.ServerOption{comm.WithWorkers(workers)}
			if tc.f32 {
				opts = append(opts, comm.WithPrecision(comm.PrecisionF32))
			}
			counted := &countingProvider{ModelProvider: inner}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			ctx, cancel := context.WithCancel(context.Background())
			served := make(chan error, 1)
			go func() { served <- comm.NewModelServer(counted, opts...).Serve(ctx, ln) }()
			t.Cleanup(func() {
				cancel()
				if err := <-served; err != nil {
					t.Errorf("serve: %v", err)
				}
			})
			client, err := comm.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })

			x := tensor.New(2, tiny.InC, tiny.H, tiny.W)
			rng.New(132).FillNormal(x.Data, 0, 1)
			check := func(ep *registry.Epoch) {
				t.Helper()
				e := ep.Pipeline()
				rt := e.NewClientRuntime()
				f := rt.Features(x).Clone()
				want := servedBy(t, e, f, lo, hi, tc.f32)
				ex, _, err := client.Exchange(ctx, f)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Model != "m" || ex.Version != ep.Version() {
					t.Errorf("response names %s v%d, want m v%d", ex.Model, ex.Version, ep.Version())
				}
				if len(ex.Features) != len(want) {
					t.Fatalf("v%d: %d feature maps, want %d", ep.Version(), len(ex.Features), len(want))
				}
				for i := range want {
					if err := comm.BitsDiffer(ex.Features[i], want[i]); err != nil {
						t.Errorf("v%d body %d features: %v", ep.Version(), lo+i, err)
					}
				}
				if hi-lo < n {
					return // a shard's features cannot make logits on their own
				}
				client.ComputeFeatures, client.Select, client.Tail = rt.Features, rt.Select, rt.Tail
				got, _, err := client.Infer(ctx, x)
				if err != nil {
					t.Fatal(err)
				}
				wantLogits := e.Predict(x)
				if tc.f32 {
					wantLogits = rt.Tail.Forward(rt.Select(want), false)
				}
				if _, v := client.Served(); v != ep.Version() {
					t.Errorf("logits served by v%d, want v%d", v, ep.Version())
				}
				if err := comm.BitsDiffer(got, wantLogits); err != nil {
					t.Errorf("v%d logits: %v", ep.Version(), err)
				}
			}

			cur, err := reg.Current("m")
			if err != nil {
				t.Fatal(err)
			}
			check(cur)
			for i := 0; i < rotations; i++ {
				if cur, err = reg.RotateSelector("m", ensemble.RotateOptions{Seed: int64(133 + i)}); err != nil {
					t.Fatal(err)
				}
				check(cur)
			}
			if got := counted.compiles.Load(); got != 1 {
				t.Errorf("%d workers compiled the bodies %d times across %d rotations, want once", workers, got, rotations)
			}
			if hi-lo < n {
				return // a new epoch costs a shard's subset provider one restriction
			}

			// AllocsPerRun's warm-up run would absorb a lone post-rotation
			// request, so the rotations come first and every measured run
			// serves the first request pinned to the next rotated version.
			f := cur.Pipeline().NewClientRuntime().Features(x).Clone()
			frame := func(version int) []byte {
				return comm.RequestFrame(t, &comm.Request{Model: "m", Version: version, Features: f}, false)
			}
			serve := comm.FrameServer(t, comm.NewModelServer(reg, opts...))
			serve(frame(cur.Version()))
			serve(frame(cur.Version()))
			frames := make([][]byte, rotations+1)
			for i := range frames {
				if _, err := reg.RotateSelector("m", ensemble.RotateOptions{Seed: int64(140 + i)}); err != nil {
					t.Fatal(err)
				}
				frames[i] = frame(cur.Version() + 1 + i)
			}
			next := 0
			allocs := testing.AllocsPerRun(rotations, func() {
				resp := serve(frames[next])
				next++
				if resp.Err != "" || resp.Version != cur.Version()+next {
					t.Errorf("served v%d (%q), want v%d", resp.Version, resp.Err, cur.Version()+next)
				}
			})
			if allocs != 0 {
				t.Errorf("first compute on a rotated version allocates %v times, want 0", allocs)
			}
		})
	}
}
