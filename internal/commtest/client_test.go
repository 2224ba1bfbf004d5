package commtest_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/tensor"
)

// The tests in this file hold the client half's reused storage — runtime
// scratches, per-connection and per-request decode arenas, tail scratches —
// to the one promise that matters: no request ever sees another's bytes.
// Every result is compared bit for bit with Ensembler.Predict, which runs the
// training entry Forward(x, false) and shares nothing with the serving path.
// They earn their keep under `go test -race`.

const callers = 8

func images(seed int64, rows int) *tensor.Tensor {
	a := commtest.TinyArch()
	x := tensor.New(rows, a.InC, a.H, a.W)
	rng.New(seed).FillNormal(x.Data, 0, 1)
	return x
}

func sameBits(got, want *tensor.Tensor) error {
	if got == nil || !got.SameShape(want) {
		return fmt.Errorf("got %v, want shape %v", got, want.Shape)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, v, want.Data[i])
		}
	}
	return nil
}

// distinctInputs gives every caller its own input (and row count) with the
// logits each pipeline in es must produce for it.
func distinctInputs(seed int64, es ...*ensemble.Ensembler) (xs []*tensor.Tensor, want [][]*tensor.Tensor) {
	want = make([][]*tensor.Tensor, len(es))
	for g := 0; g < callers; g++ {
		x := images(seed+int64(g), 1+g%3)
		xs = append(xs, x)
		for i, e := range es {
			want[i] = append(want[i], e.Predict(x))
		}
	}
	return xs, want
}

// hammer runs infer from `callers` goroutines at once, `rounds` times each,
// and reports every result that matches none of the caller's accepted logits.
func hammer(t *testing.T, rounds int, xs []*tensor.Tensor, want [][]*tensor.Tensor, infer func(x *tensor.Tensor) (*tensor.Tensor, error)) {
	t.Helper()
	var wg sync.WaitGroup
	for g := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := infer(xs[g])
				if err != nil {
					t.Errorf("caller %d request %d: %v", g, i, err)
					return
				}
				err = fmt.Errorf("no accepted pipeline")
				for _, w := range want {
					if err = sameBits(got, w[g]); err == nil {
						break
					}
				}
				if err != nil {
					t.Errorf("caller %d request %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentCallersStayBitExact(t *testing.T) {
	ctx := context.Background()
	t.Run("shard.Client", func(t *testing.T) {
		f := commtest.StartShards(t, 2, 4, 2, 61)
		cfg := f.ClientConfig()
		// One connection per shard makes every request reuse the storage of
		// the one before.
		cfg.PoolSize = 1
		c, err := shard.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		xs, want := distinctInputs(600, f.Pipeline)
		hammer(t, 25, xs, want, func(x *tensor.Tensor) (*tensor.Tensor, error) {
			logits, _, err := c.Infer(ctx, x)
			return logits, err
		})
	})

	t.Run("comm.Pool", func(t *testing.T) {
		f := commtest.StartShards(t, 1, 4, 2, 62) // one shard hosting every body is a monolith
		pool, err := comm.NewPool(f.Addrs[0], 2, func(c *comm.Client) error {
			rt := f.Pipeline.NewClientRuntime()
			c.ComputeFeatures, c.Select, c.Tail = rt.Features, rt.Select, rt.Tail
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		xs, want := distinctInputs(620, f.Pipeline)
		hammer(t, 25, xs, want, func(x *tensor.Tensor) (*tensor.Tensor, error) {
			logits, _, err := pool.Infer(ctx, x)
			return logits, err
		})
		hammer(t, 10, xs, want, func(x *tensor.Tensor) (*tensor.Tensor, error) {
			// The same input three times over: the batched path copies each
			// input's features out of the runtime before computing the next.
			logits, _, err := pool.InferBatch(ctx, []*tensor.Tensor{x, x, x})
			if err != nil {
				return nil, err
			}
			if err := sameBits(logits[0], logits[2]); err != nil {
				return nil, fmt.Errorf("batched outputs of one input differ: %w", err)
			}
			return logits[1], nil
		})
	})
}

// TestRotationMidTrafficRetiresRuntimes rotates the selector while requests
// are in flight: every answer must be exactly the old or the new pipeline's,
// and once Reconfigure (all that RotateTo does) has returned, runtimes of the
// old epoch — storage and all — are never handed out again, fresh ones are
// built instead.
func TestRotationMidTrafficRetiresRuntimes(t *testing.T) {
	f := commtest.StartShards(t, 2, 4, 2, 63)
	cfg := f.ClientConfig()
	cfg.PoolSize = 2
	c, err := shard.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rotated, err := f.Pipeline.Rotate(ensemble.RotateOptions{Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	xs, want := distinctInputs(630, f.Pipeline, rotated)
	ctx := context.Background()
	var served, built atomic.Int64
	busy := make(chan struct{}) // closed once the old epoch's runtimes are warm and in use
	infer := func(x *tensor.Tensor) (*tensor.Tensor, error) {
		logits, _, err := c.Infer(ctx, x)
		if served.Add(1) == 3*callers {
			close(busy)
		}
		return logits, err
	}

	fresh := shard.PipelineRuntime(rotated)
	done := make(chan struct{})
	go func() {
		defer close(done)
		hammer(t, 40, xs, want, infer)
	}()
	<-busy
	c.Reconfigure(func() (*shard.Runtime, error) {
		built.Add(1)
		return fresh()
	})
	<-done

	if built.Load() == 0 {
		t.Error("no runtime was built after the rotation: old ones kept serving")
	}
	hammer(t, 5, xs, want[1:], infer) // the old pipeline's answers are no longer acceptable
	if n := built.Load(); n > 2*callers {
		t.Errorf("%d runtimes built for %d callers: released ones are not reused", n, callers)
	}
}

// shardAllocCeiling bounds one warm 2-shard request, servers included (they
// run in this process): the logits its caller keeps (3), and nothing else.
// The gather and the scatter's leg closures live in the checked-out runtime,
// and each shard server hands out its cached subsetModel for as long as the
// epoch holds.
const shardAllocCeiling = 3

func TestShardClientInferLoopAllocs(t *testing.T) {
	f := commtest.StartShards(t, 2, 4, 2, 65)
	cfg := f.ClientConfig()
	cfg.PoolSize = 1
	c, err := shard.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x := images(650, 1)
	infer := func() {
		if _, _, err := c.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	infer() // sizes the storage
	infer() // first pass over it
	if allocs := testing.AllocsPerRun(100, infer); allocs > shardAllocCeiling {
		t.Errorf("warm 2-shard Infer allocates %v times per call, ceiling %v", allocs, shardAllocCeiling)
	}
}
