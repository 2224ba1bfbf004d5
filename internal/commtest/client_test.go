package commtest_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
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

	t.Run("monolith", func(t *testing.T) {
		f := commtest.StartShards(t, 1, 4, 2, 62) // one shard hosting every body is a monolith
		cfg := f.ClientConfig()
		cfg.PoolSize = 2
		c, err := shard.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		xs, want := distinctInputs(620, f.Pipeline)
		hammer(t, 25, xs, want, func(x *tensor.Tensor) (*tensor.Tensor, error) {
			logits, _, err := c.Infer(ctx, x)
			return logits, err
		})
		// Two wired connections shared by every caller, so each request
		// decodes into storage the one before it used, at another row count.
		conns := make(chan *comm.Client, 2)
		for range cap(conns) {
			cc, err := comm.Dial(f.Addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			rt := f.Pipeline.NewClientRuntime()
			cc.ComputeFeatures, cc.Select, cc.Tail = rt.Features, rt.Select, rt.Tail
			conns <- cc
		}
		hammer(t, 10, xs, want, func(x *tensor.Tensor) (*tensor.Tensor, error) {
			cc := <-conns
			defer func() { conns <- cc }()
			logits, _, err := cc.Infer(ctx, x)
			return logits, err
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

// shardAllocCeiling bounds one warm 2-shard request on the client side: the
// logits its caller keeps (3), and nothing else. The gather and the
// scatter's leg closures live in the checked-out runtime.
const shardAllocCeiling = 3

// shardServersEnv, set in the environment, turns this test binary into the
// two shard servers of TestShardClientInferLoopAllocs: testing.AllocsPerRun
// counts every malloc in its process, so servers in the test's own process
// would charge their allocations to the client.
const shardServersEnv = "COMMTEST_SHARD_SERVERS"

// allocsSeed seeds the pipeline both processes build, so the client's
// runtime matches the servers' bodies.
const allocsSeed = 65

func TestMain(m *testing.M) {
	if os.Getenv(shardServersEnv) != "" {
		os.Exit(serveShards())
	}
	os.Exit(m.Run())
}

// serveShards publishes the seeded 2-shard fleet, prints its listen
// addresses on one stdout line, and serves until stdin closes.
func serveShards() int {
	e := commtest.Pipeline(commtest.TinyArch(), 4, 2, allocsSeed)
	reg := registry.New(nil)
	if _, err := reg.Publish("fleet", e); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := commtest.StartShardServers(reg, e, 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(strings.Join(f.Addrs, " "))
	// Serve until the parent closes stdin or exits; a read error ends the
	// wait just as EOF does.
	_, _ = io.Copy(io.Discard, os.Stdin)
	code := 0
	for i := range f.Addrs {
		if err := f.StopShard(i); err != nil {
			fmt.Fprintf(os.Stderr, "shard %d serve: %v\n", i, err)
			code = 1
		}
	}
	return code
}

// startShardProcess re-executes the test binary as serveShards and returns
// the shard addresses it listens on; cleanup stops it.
func startShardProcess(t *testing.T) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), shardServersEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		if err := cmd.Wait(); err != nil {
			t.Errorf("shard server process: %v\n%s", err, stderr.String())
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("shard server process printed no addresses: %v\n%s", err, stderr.String())
	}
	return strings.Fields(line)
}

func TestShardClientInferLoopAllocs(t *testing.T) {
	addrs := startShardProcess(t)
	e := commtest.Pipeline(commtest.TinyArch(), 4, 2, allocsSeed)
	ranges, err := shard.Plan(e.Cfg.N, len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.NewClient(shard.Config{
		Addrs: addrs, Ranges: ranges, N: e.Cfg.N,
		NewRuntime: shard.PipelineRuntime(e), PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	x := images(650, 1) // the check below sizes the storage
	if err := sameBits(mustInfer(t, c, x), e.Predict(x)); err != nil {
		t.Fatalf("remote shards disagree with the local pipeline: %v", err)
	}
	infer := func() { mustInfer(t, c, x) }
	infer() // first pass over the sized storage
	if allocs := testing.AllocsPerRun(100, infer); allocs > shardAllocCeiling {
		t.Errorf("warm 2-shard Infer allocates %v times per call, ceiling %v", allocs, shardAllocCeiling)
	}
}

func mustInfer(t *testing.T, c *shard.Client, x *tensor.Tensor) *tensor.Tensor {
	logits, _, err := c.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	return logits
}
