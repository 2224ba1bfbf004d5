package shard_test

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/tensor"
)

// imageBatch builds a deterministic image batch shaped for TinyArch.
func imageBatch(rows int, seed int64) *tensor.Tensor {
	arch := commtest.TinyArch()
	x := tensor.New(rows, arch.InC, arch.H, arch.W)
	rng.New(seed).FillNormal(x.Data, 0, 1)
	return x
}

// shardHosting returns the index of a shard whose range contains a selected
// body, and one whose range contains none (both must exist for the fleets
// these tests build).
func shardHosting(t *testing.T, f *commtest.Fleet) (selected, unselected int) {
	t.Helper()
	selected, unselected = -1, -1
	for k, r := range f.Ranges {
		hosts := false
		for _, i := range f.Pipeline.Selector.Indices {
			if r.Contains(i) {
				hosts = true
				break
			}
		}
		if hosts && selected < 0 {
			selected = k
		}
		if !hosts && unselected < 0 {
			unselected = k
		}
	}
	if selected < 0 || unselected < 0 {
		t.Fatalf("fleet layout %v with selection %v has no (selected, unselected) shard pair",
			f.Ranges, f.Pipeline.Selector.Indices)
	}
	return selected, unselected
}

func TestShardedInferMatchesMonolith(t *testing.T) {
	f := commtest.StartShards(t, 3, 4, 2, 11)
	c, err := shard.NewClient(f.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x := imageBatch(4, 12)
	logits, timing, err := c.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if !logits.AllClose(f.Pipeline.Predict(x), 1e-9) {
		t.Error("sharded inference does not match the local pipeline bit-for-bit")
	}
	if timing.BytesUp == 0 || timing.BytesDown == 0 {
		t.Errorf("timing byte counters not aggregated: %+v", timing)
	}
	for _, h := range c.Health() {
		if h.Requests != 1 || h.Failures != 0 || h.Breaker != shard.BreakerClosed {
			t.Errorf("healthy shard snapshot wrong: %+v", h)
		}
	}
}

func TestShardLossSurvivableWhenUnselected(t *testing.T) {
	f := commtest.StartShards(t, 3, 4, 2, 21)
	sel, unsel := shardHosting(t, f)
	c, err := shard.NewClient(f.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := imageBatch(2, 22)

	// Warm the pools, then kill the shard hosting no selected bodies:
	// inference must keep succeeding and keep matching local results.
	if _, _, err := c.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	if err := f.StopShard(unsel); err != nil {
		t.Fatalf("stopping shard %d: %v", unsel, err)
	}
	logits, _, err := c.Infer(ctx, x)
	if err != nil {
		t.Fatalf("inference must survive losing unselected shard %d: %v", unsel, err)
	}
	if !logits.AllClose(f.Pipeline.Predict(x), 1e-9) {
		t.Error("degraded inference does not match the local pipeline")
	}

	// Killing a shard that hosts selected bodies is fatal for this client,
	// and the error says so.
	if err := f.StopShard(sel); err != nil {
		t.Fatalf("stopping shard %d: %v", sel, err)
	}
	if _, _, err := c.Infer(ctx, x); err == nil {
		t.Fatal("inference must fail when a selected shard is unreachable")
	} else if !strings.Contains(err.Error(), "selected") {
		t.Errorf("error should name the selected-shard cause, got: %v", err)
	}
}

func TestShardDeathUnderConcurrentTraffic(t *testing.T) {
	f := commtest.StartShards(t, 3, 4, 2, 31)
	_, unsel := shardHosting(t, f)
	c, err := shard.NewClient(f.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := imageBatch(2, 32)
	want := f.Pipeline.Predict(x)

	const clients, perClient = 6, 12
	var failures, mismatches atomic.Int64
	var started, kill sync.WaitGroup
	started.Add(clients)
	kill.Add(1)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			kill.Wait()
			for i := 0; i < perClient; i++ {
				logits, _, err := c.Infer(ctx, x)
				if err != nil {
					failures.Add(1)
					t.Logf("request failed: %v", err)
					continue
				}
				if !logits.AllClose(want, 1e-9) {
					mismatches.Add(1)
				}
			}
		}()
	}
	started.Wait()
	// Kill the unselected shard while all clients hammer the fleet: every
	// request must still succeed (the selection never needed it) and still
	// match the local pipeline bit-for-bit.
	if err := f.StopShard(unsel); err != nil {
		t.Fatalf("stopping shard %d: %v", unsel, err)
	}
	kill.Done()
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Errorf("%d requests failed; shard %d loss must be survivable", n, unsel)
	}
	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d requests returned wrong logits", n)
	}
	h := c.Health()
	if h[unsel].Failures == 0 || h[unsel].Breaker == shard.BreakerClosed {
		t.Errorf("killed shard health should show failures and down: %+v", h[unsel])
	}
	for k, hs := range h {
		if k != unsel && (hs.Failures != 0 || hs.Breaker != shard.BreakerClosed) {
			t.Errorf("live shard %d health shows failures: %+v", k, hs)
		}
	}
}

func TestReconfigurePropagatesRotation(t *testing.T) {
	f := commtest.StartShards(t, 2, 4, 2, 41)
	c, err := shard.NewClient(f.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := imageBatch(2, 42)

	if _, _, err := c.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	// Rotate the secret selector. The shard servers' bodies are untouched
	// (rotation is invisible on the wire), so only the client re-wires.
	rotated, err := f.Pipeline.Rotate(ensemble.RotateOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	c.Reconfigure(shard.PipelineRuntime(rotated))
	logits, _, err := c.Infer(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !logits.AllClose(rotated.Predict(x), 1e-9) {
		t.Error("post-rotation inference does not match the rotated pipeline")
	}
	if logits.AllClose(f.Pipeline.Predict(x), 1e-9) {
		t.Error("rotation changed nothing — selector redraw did not propagate")
	}
}

func TestMixedEpochGatherRejected(t *testing.T) {
	// Two shard servers over two registries at different versions of the
	// same model — exactly what a client sees mid-way through a rolling
	// fleet reload. The gather must refuse to mix their answers even
	// though every tensor is shape-identical.
	e := commtest.Pipeline(commtest.TinyArch(), 4, 2, 71)
	regA := registry.New(nil)
	if _, err := regA.Publish("m", e); err != nil {
		t.Fatal(err)
	}
	regB := registry.New(nil)
	for i := 0; i < 2; i++ { // same pipeline, but live at v2
		if _, err := regB.Publish("m", e); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := shard.Plan(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for k, reg := range []*registry.Registry{regA, regB} {
		provider, err := comm.NewSubsetProvider(reg, plan[k].Lo, plan[k].Hi)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		srv := comm.NewModelServer(provider)
		go func() { served <- srv.Serve(ctx, ln) }()
		t.Cleanup(func() { cancel(); <-served; ln.Close() })
		addrs[k] = ln.Addr().String()
	}
	// A selection spanning both shards consumes features from both, so
	// the version skew must be rejected.
	e.Selector = ensemble.FixedSelector(4, []int{1, 2})
	c, err := shard.NewClient(shard.Config{
		Addrs: addrs, Ranges: plan, N: 4, NewRuntime: shard.PipelineRuntime(e),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Infer(context.Background(), imageBatch(1, 72))
	if err == nil || !strings.Contains(err.Error(), "mixed epochs") {
		t.Fatalf("gather across v1 and v2 shards must be rejected, got: %v", err)
	}

	// A selection confined to one shard never reads the skewed shard's
	// features — the same reasoning that makes its death survivable makes
	// its version skew harmless, so a rolling reload stays zero-downtime
	// for this client.
	e.Selector = ensemble.FixedSelector(4, []int{0, 1})
	c2, err := shard.NewClient(shard.Config{
		Addrs: addrs, Ranges: plan, N: 4, NewRuntime: shard.PipelineRuntime(e),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	logits, _, err := c2.Infer(context.Background(), imageBatch(1, 72))
	if err != nil {
		t.Fatalf("version skew on an unselected shard must be harmless: %v", err)
	}
	if !logits.AllClose(e.Predict(imageBatch(1, 72)), 1e-9) {
		t.Error("skew-tolerant inference does not match the local pipeline")
	}
}

func TestNewClientValidation(t *testing.T) {
	rtf := func() (*shard.Runtime, error) { return nil, nil }
	cases := []shard.Config{
		{},
		{Addrs: []string{"a"}, Ranges: []shard.Range{{0, 2}}, N: 2},                               // nil factory
		{Addrs: []string{"a", "b"}, Ranges: []shard.Range{{0, 2}}, N: 2, NewRuntime: rtf},         // count mismatch
		{Addrs: []string{"a", "b"}, Ranges: []shard.Range{{0, 2}, {3, 4}}, N: 4, NewRuntime: rtf}, // gap
		{Addrs: []string{"a", "b"}, Ranges: []shard.Range{{0, 2}, {2, 2}}, N: 2, NewRuntime: rtf}, // empty range
		{Addrs: []string{"a", "b"}, Ranges: []shard.Range{{0, 2}, {2, 4}}, N: 5, NewRuntime: rtf}, // wrong N
		{Addrs: []string{"a", "b"}, Ranges: []shard.Range{{1, 2}, {2, 4}}, N: 4, NewRuntime: rtf}, // offset start
	}
	for i, cfg := range cases {
		if _, err := shard.NewClient(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	// An incompletely wired runtime factory fails at first use, not at
	// construction.
	f := commtest.StartShards(t, 2, 4, 2, 61)
	cfg := f.ClientConfig()
	cfg.NewRuntime = func() (*shard.Runtime, error) { return &shard.Runtime{}, nil }
	c, err := shard.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Infer(context.Background(), imageBatch(1, 62)); err == nil {
		t.Error("incompletely wired runtime must fail inference")
	}
}
