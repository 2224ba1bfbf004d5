package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ensembler/internal/audit"
	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/split"
	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

const (
	modelName = "bench"
	// modelSeed is fixed: -seed varies the inputs and the rotation draws, the
	// program under test is the same model in every run.
	modelSeed = 1
	// Two load generators and two server workers on GOMAXPROCS=2 keep both
	// vCPUs of the reference host busy; with a core idle the same code
	// measured ±10% between runs, saturated ±1%.
	generators = 2
	rounds     = 9
	poolSize   = 64
	// warmDivisor sets the warm-up at 1/5 of the measured request count, which
	// is what puts every set-up above 2.5 s at the run length BENCHMARK.json
	// fixes (a 12 ms set-up read 11% apart between identical runs).
	warmDivisor = 5
	setups      = 3
	// f32Budget is the audit/precision_test.go drift bound: |got-want| /
	// max(1,|want|) against the f64 reference.
	f32Budget = 1e-5
)

// workload is one traffic mix. rate fixes the request count as rate ×
// -seconds: work is a fixed count, never a time window, so allocation and
// byte totals repeat exactly and a slow host phase stretches the run instead
// of shrinking the sample.
type workload struct {
	name, why  string
	arch       split.Arch
	n, p       int
	precision  string // registry manifest commitment, "f64" or "f32"
	wire       comm.WireFormat
	rows       int  // images per request
	rate       int  // requests per second of -seconds (nominal, from the reference host)
	shards     int  // 0: one server, 2 workers; K: K subset servers, 1 worker each
	production bool // metrics + tracer + audit sampler + privacy budget on the server
	rotations  int  // quiesced selector rotations, one between consecutive rounds
}

func workloads() []*workload {
	edge := ensemble.DefaultConfig(data.CIFAR10Like, modelSeed)
	tiny := commtest.TinyArch()
	return []*workload{
		{name: "edge_f64", why: "paper deployment N=10 P=4 at f64, 1 image/request: small-panel tensor/nn kernels do nearly all the work",
			arch: edge.Arch, n: edge.N, p: edge.P, precision: "f64", wire: comm.WireBinary, rows: 1, rate: 880},
		{name: "batch8_f32", why: "same pipeline on the f32 twin stack with 8 images/request: large panels and 8x frames through the same layers",
			arch: edge.Arch, n: edge.N, p: edge.P, precision: "f32", wire: comm.WireBinaryF32, rows: 8, rate: 200},
		{name: "tiny_rpc_full", why: "negligible compute with every production server option on: codec, syscalls, ledger, spans and metrics are the request",
			arch: tiny, n: 2, p: 1, precision: "f64", wire: comm.WireBinary, rows: 1, rate: 17600, production: true},
		{name: "fleet2_rotating", why: "edge_f64 over a 2-shard fleet with 8 quiesced selector rotations: shard/registry cost is the delta to edge_f64",
			arch: edge.Arch, n: edge.N, p: edge.P, precision: "f64", wire: comm.WireBinary, rows: 1, rate: 880, shards: 2, rotations: rounds - 1},
	}
}

func (w *workload) pipeline() *ensemble.Ensembler {
	cfg := ensemble.DefaultConfig(data.CIFAR10Like, modelSeed)
	cfg.Arch, cfg.N, cfg.P = w.arch, w.n, w.p
	return ensemble.New(cfg)
}

// requests is the fixed request count of one measured phase, a whole number
// of equal rounds.
func (w *workload) requests(seconds int) int {
	return w.rate * seconds / rounds * rounds
}

// inputPool generates the only data the program ever sees: poolSize image
// batches drawn from one stream seeded by -seed.
func inputPool(w *workload, seed int64) []*tensor.Tensor {
	r := rng.New(seed)
	pool := make([]*tensor.Tensor, poolSize)
	for i := range pool {
		pool[i] = tensor.New(w.rows, w.arch.InC, w.arch.H, w.arch.W)
		r.FillNormal(pool[i].Data, 0, 1)
	}
	return pool
}

// rotationSeeds derives the selector redraws from -seed on a stream
// independent of the input pool's.
func rotationSeeds(seed int64, n int) []int64 {
	r := rng.New(seed ^ 0x726f74617465) // "rotate"
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Uint64() >> 1)
	}
	return out
}

// oracle holds the expected logits of every pool input for the serving
// epoch, computed by ClientRuntime.Predict on private body copies.
type oracle struct {
	pool []*tensor.Tensor
	want []*tensor.Tensor
	tol  float64 // 0: bit-for-bit
}

func predictAll(e *ensemble.Ensembler, pool []*tensor.Tensor) []*tensor.Tensor {
	rt, bodies := e.NewClientRuntime(), e.CloneBodies()
	want := make([]*tensor.Tensor, len(pool))
	for i, x := range pool {
		want[i] = rt.Predict(x, bodies).Clone()
	}
	return want
}

func (o *oracle) ok(idx int, got *tensor.Tensor) bool {
	want := o.want[idx]
	if got == nil || !got.SameShape(want) {
		return false
	}
	for i, v := range got.Data {
		if o.tol == 0 {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				return false
			}
		} else if !(math.Abs(v-want.Data[i])/math.Max(1, math.Abs(want.Data[i])) <= o.tol) {
			return false
		}
	}
	return true
}

// variant selects the server option set of a stack.
type variant int

const (
	plain  variant = iota // the workload's own options
	traced                // plus a retention-off tracer per server (and per shard client)
	bare                  // no optional server option at all: the control-plane baseline
)

type server struct {
	addr   string
	tracer *trace.Tracer
	stop   func() error
}

// generator is one closed-loop client: it owns its connections and client
// runtime, and sends its next request only after the previous one answered.
type generator struct {
	c  *comm.Client            // monolith
	rt *ensemble.ClientRuntime // monolith: the networks c is wired to
	sc *shard.Client           // fleet (PoolSize 1: one connection per shard)
	tr *trace.Tracer           // fleet, traced variant: the shard client's root-leg tracer

	lat    []int64
	spans  []span
	idBase int32 // first span ID of this generator's range
	tally  tally
	reqErr error
}

// tally accumulates what the requests of a round report. bytesLo and bytesHi
// bound the wire bytes of a single request: the guard rails require them
// equal, a request of another size would be another workload.
type tally struct {
	failed             int
	client, roundTrip  time.Duration
	bytesUp, bytesDown int
	bytesLo, bytesHi   int
}

func newTally() tally { return tally{bytesLo: math.MaxInt} }

func (t *tally) add(o tally) {
	t.bytesLo = min(t.bytesLo, o.bytesLo)
	t.bytesHi = max(t.bytesHi, o.bytesHi)
	t.failed += o.failed
	t.client += o.client
	t.roundTrip += o.roundTrip
	t.bytesUp += o.bytesUp
	t.bytesDown += o.bytesDown
}

// stack is one running deployment: a registry opened from its own store
// directory, the servers over it, and the generators' clients.
type stack struct {
	w       *workload
	reg     *registry.Registry
	servers []*server
	gens    []*generator
	guard   *privacy.Guard
	oracle  oracle
	sent    int // requests issued so far; the pool is walked round-robin across rounds
}

// publish writes the workload's pipeline to a fresh on-disk store, the way
// training hands a model to serving. It is not part of set-up time.
func publish(w *workload, e *ensemble.Ensembler, dir string) error {
	store, err := registry.Create(dir)
	if err != nil {
		return err
	}
	_, err = store.PublishPrecision(modelName, e, w.precision)
	return err
}

// startStack is the timed set-up: open the store and load the model, start
// the servers, dial the generators, and run the warm-up through the same
// closed loop the measurement uses.
func startStack(w *workload, v variant, dir string, pool, want []*tensor.Tensor, warm int) (s *stack, err error) {
	s = &stack{w: w, oracle: oracle{pool: pool, want: want}}
	if w.precision == "f32" {
		s.oracle.tol = f32Budget
	}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if s.reg, err = registry.OpenDir(dir); err != nil {
		return s, err
	}
	ep, err := s.reg.Current(modelName)
	if err != nil {
		return s, err
	}
	man, err := s.reg.Store().Manifest(modelName, ep.Version())
	if err != nil {
		return s, err
	}
	prec, err := comm.ParsePrecision(man.Precision)
	if err != nil {
		return s, err
	}

	opts := []comm.ServerOption{comm.WithPrecision(prec)}
	if w.production && v != bare {
		ledger, err := privacy.NewLedger(privacy.LedgerConfig{
			// Large enough that no account leaves LevelOK: a noised or refused
			// response would be a different workload, and the guard rails fail
			// the run if either counter moves.
			BudgetEps: 1e6, QueryEps: 1e-3, SecretFraction: float64(w.p) / float64(w.n),
		})
		if err != nil {
			return s, err
		}
		if s.guard, err = privacy.NewGuard(ledger, privacy.PolicyConfig{}); err != nil {
			return s, err
		}
		opts = append(opts,
			comm.WithMetrics(comm.NewServerMetrics(telemetry.NewRegistry())),
			comm.WithObserver(audit.NewSampler(100, 64, modelSeed)),
			comm.WithBudget(s.guard))
	}
	providers, workers := []comm.ModelProvider{s.reg}, generators
	var ranges []shard.Range
	if w.shards > 0 {
		if ranges, err = shard.Plan(w.n, w.shards); err != nil {
			return s, err
		}
		providers, workers = providers[:0], 1
		for _, r := range ranges {
			p, err := comm.NewSubsetProvider(s.reg, r.Lo, r.Hi)
			if err != nil {
				return s, err
			}
			providers = append(providers, p)
		}
	}
	for _, p := range providers {
		so := append(slices.Clone(opts), comm.WithWorkers(workers))
		var tr *trace.Tracer
		switch {
		case v == traced:
			// Retention off: the stage histograms, fed by every span, are all
			// the benchmark reads.
			tr = trace.New(trace.Config{SampleRate: -1})
		case w.production && v == plain:
			tr = trace.New(trace.Config{})
		}
		if tr != nil {
			so = append(so, comm.WithTracer(tr))
		}
		srv, err := startServer(p, tr, so)
		if err != nil {
			return s, err
		}
		s.servers = append(s.servers, srv)
	}

	for g := 0; g < generators; g++ {
		gen := &generator{idBase: int32(g) << 28}
		s.gens = append(s.gens, gen)
		if w.shards > 0 {
			cfg := shard.Config{Ranges: ranges, N: w.n, NewRuntime: shard.PipelineRuntime(ep.Pipeline()), PoolSize: 1}
			for _, srv := range s.servers {
				cfg.Addrs = append(cfg.Addrs, srv.addr)
			}
			if v == traced {
				gen.tr = trace.New(trace.Config{SampleRate: 1, Capacity: 1 << 14})
				cfg.Tracer = gen.tr
			}
			if gen.sc, err = shard.NewClient(cfg); err != nil {
				return s, err
			}
			continue
		}
		dial := []comm.DialOption{comm.WithWire(w.wire)}
		if w.production {
			dial = append(dial, comm.WithClientID(fmt.Sprintf("bench-%d", g)))
		}
		if gen.c, err = comm.Dial(s.servers[0].addr, dial...); err != nil {
			return s, err
		}
		gen.rt = ep.Pipeline().NewClientRuntime()
		gen.c.ComputeFeatures, gen.c.Select, gen.c.Tail = gen.rt.Features, gen.rt.Select, gen.rt.Tail
	}

	if st := s.round(warm, (*generator).infer); st.failed > 0 {
		return s, fmt.Errorf("warm-up: %d of %d requests failed: %w", st.failed, warm, st.err)
	}
	return s, nil
}

func startServer(p comm.ModelProvider, tr *trace.Tracer, opts []comm.ServerOption) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := comm.NewModelServer(p, opts...)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	return &server{addr: ln.Addr().String(), tracer: tr, stop: func() error {
		cancel()
		return <-served
	}}, nil
}

// close tears the stack down and waits for every server goroutine to exit.
func (s *stack) close() error {
	var errs []error
	for _, g := range s.gens {
		if g.c != nil {
			g.c.Close()
		}
		if g.sc != nil {
			g.sc.Close()
		}
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.stop())
	}
	return errors.Join(errs...)
}

// rotate redraws the secret selector while no request is in flight: the
// registry publishes the rotated epoch, every shard client re-wires to it,
// and the oracle is recomputed for the new epoch. Rotating under load failed
// 3-5 of 16,000 requests on the reference host, a different number each run.
func (s *stack) rotate(seed int64) (time.Duration, error) {
	start := time.Now()
	ep, err := s.reg.RotateSelector(modelName, ensemble.RotateOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	for _, g := range s.gens {
		g.sc.RotateTo(ep.Pipeline())
	}
	took := time.Since(start)
	s.oracle.want = predictAll(ep.Pipeline(), s.oracle.pool)
	return took, nil
}

// infer is the untraced request path: the production client call, whole.
func (g *generator) infer(ctx context.Context, _ int, x *tensor.Tensor) (*tensor.Tensor, comm.Timing, error) {
	if g.sc != nil {
		return g.sc.Infer(ctx, x)
	}
	return g.c.Infer(ctx, x)
}

type requestFunc func(g *generator, ctx context.Context, req int, x *tensor.Tensor) (*tensor.Tensor, comm.Timing, error)

// roundStats is one closed-loop round of a fixed request count.
type roundStats struct {
	tally
	n        int
	wall     time.Duration
	p50, p95 time.Duration // client-observed latency over the round's n samples, nearest rank
	mallocs  uint64
	cpu      time.Duration // process user+sys
	gcs      uint32
	gcPause  time.Duration
	err      error // first request error, if any
}

func (r roundStats) rps() float64 { return float64(r.n-r.failed) / r.wall.Seconds() }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round sends n requests through the generators and checks every response
// against the oracle. The generators draw request numbers from one shared
// counter, so both stay busy until the fixed count is done and the round's
// wall time has no single-client tail.
func (s *stack) round(n int, do requestFunc) roundStats {
	var ms0, ms1 runtime.MemStats
	for _, g := range s.gens {
		g.lat, g.tally, g.reqErr = slices.Grow(g.lat[:0], n), newTally(), nil
	}
	first := s.sent
	s.sent += n
	var next atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	for _, g := range s.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				idx := (first + i) % len(s.oracle.pool)
				t0 := time.Now()
				logits, tm, err := do(g, ctx, first+i, s.oracle.pool[idx])
				g.lat = append(g.lat, int64(time.Since(t0)))
				if err == nil && !s.oracle.ok(idx, logits) {
					err = fmt.Errorf("request %d: response differs from the oracle", first+i)
				}
				if err != nil {
					g.tally.failed++
					if g.reqErr == nil {
						g.reqErr = err
					}
					continue
				}
				b := tm.BytesUp + tm.BytesDown
				g.tally.add(tally{client: tm.Client, roundTrip: tm.RoundTrip,
					bytesUp: tm.BytesUp, bytesDown: tm.BytesDown, bytesLo: b, bytesHi: b})
			}
		}()
	}
	wg.Wait()
	st := roundStats{tally: newTally(), n: n, wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.gcs = ms1.NumGC - ms0.NumGC
	st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	var lat []int64
	for _, g := range s.gens {
		st.tally.add(g.tally)
		lat = append(lat, g.lat...)
		if st.err == nil {
			st.err = g.reqErr
		}
	}
	slices.Sort(lat)
	st.p50, st.p95 = time.Duration(percentile(lat, 0.50)), time.Duration(percentile(lat, 0.95))
	return st
}

// phase is a sequence of rounds on one stack.
type phase []roundStats

func (p phase) perRound(f func(roundStats) float64) []float64 {
	out := make([]float64, len(p))
	for i, r := range p {
		out[i] = f(r)
	}
	return out
}

func (p phase) total() roundStats {
	t := roundStats{tally: newTally()}
	for _, r := range p {
		t.tally.add(r.tally)
		t.n += r.n
		t.wall += r.wall
		t.mallocs += r.mallocs
		t.cpu += r.cpu
		t.gcs += r.gcs
		t.gcPause += r.gcPause
		if t.err == nil {
			t.err = r.err
		}
	}
	return t
}
