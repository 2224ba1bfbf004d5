package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/ensemble"
	"ensembler/internal/faultpoint"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// Runtime is the client-side half of the pipeline as the scatter-gather
// client uses it: head+noise feature computation, the secret selection over
// the reassembled N-body feature order, and the tail. The networks behind
// these hooks cache forward state, so one Runtime serves one request at a
// time; the Client keeps a free list and builds more through its factory as
// concurrency demands.
type Runtime struct {
	// Features computes the transmitted representation for an image batch.
	// The result may live in the runtime until the next Features call (the
	// pipeline runtime's does).
	Features func(x *tensor.Tensor) *tensor.Tensor
	// Select applies the secret selector to the N reassembled feature
	// matrices. Entries for bodies hosted by failed-but-unselected shards
	// are nil; Select must only touch the selected indices (the ensemble
	// selector does by construction). The result may likewise live in the
	// runtime until the next Select call.
	Select func(features []*tensor.Tensor) *tensor.Tensor
	// Tail maps the selected features to logits.
	Tail *nn.Network
	// Selected lists the body indices Select actually reads — the knowledge
	// that makes shard loss survivable: a request fails only when a shard
	// hosting one of these is unreachable. nil means every body is needed.
	Selected []int
}

// PipelineRuntime adapts a trained pipeline to the Client's runtime
// factory: each call clones the client-side networks (head, fixed noise,
// selector, tail), so pooled concurrent requests never share forward
// caches.
func PipelineRuntime(e *ensemble.Ensembler) func() (*Runtime, error) {
	return func() (*Runtime, error) {
		rt := e.NewClientRuntime()
		return &Runtime{
			Features: rt.Features,
			Select:   rt.Select,
			Tail:     rt.Tail,
			Selected: rt.Selector.Indices,
		}, nil
	}
}

// Config describes a sharded fleet from the client's point of view.
type Config struct {
	// Addrs are the K shard server addresses, in shard order.
	Addrs []string
	// Ranges are the body assignments per shard — typically Plan(N, K).
	// They must be contiguous, disjoint, and cover [0, N).
	Ranges []Range
	// N is the total ensemble size the ranges must cover.
	N int
	// NewRuntime builds one client runtime (see PipelineRuntime). Called
	// lazily as concurrent requests demand runtimes.
	NewRuntime func() (*Runtime, error)
	// PoolSize bounds the connection pool per shard (default 4).
	PoolSize int
	// Model and Version are the optional routing header each shard request
	// carries; zero values mean the shard's default model at its current
	// version.
	Model   string
	Version int
	// Retries is how many additional attempts a failed shard exchange gets
	// before the shard is declared failed for the request (default 1: one
	// immediate retry on any error, no backoff; < 0 disables retries). It is
	// the fleet's only retry: comm.Pool makes exactly one attempt. The pool
	// discards broken connections, so a retry dials fresh.
	Retries int
	// DownAfter is the circuit-breaker threshold: this many consecutive
	// failures open a shard's circuit (default 3). An open circuit
	// short-circuits requests to the shard — no dial, no retry storm — and
	// recovery runs through the half-open single-probe admission below.
	DownAfter int
	// ProbeTimeout bounds the single half-open probe a recovering shard
	// gets (default 1s). A cleanly dead process refuses connections
	// immediately, but a black-holed host (partition, dropped SYNs) would
	// otherwise stall the probing gather for the kernel connect timeout.
	ProbeTimeout time.Duration
	// BreakerBackoff is the first reopen wait after a circuit opens
	// (default 500ms); each failed half-open probe doubles it up to
	// BreakerMaxBackoff (default 15s), with ±BreakerJitter fractional
	// jitter (default 0.2; negative disables) so a fleet of clients does
	// not re-probe a recovering shard in lockstep.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	BreakerJitter     float64
	// BreakerSeed seeds the jitter rng (shard k uses BreakerSeed+k), so
	// tests replay exact reopen schedules. 0 means seed 1.
	BreakerSeed int64
	// Tracer, when set, makes every Infer a root trace leg: head compute,
	// per-shard scatter round trips (retries marked), and
	// select+tail each become spans, and the minted trace ID rides every
	// shard exchange on the wire so the shard servers' own legs stitch
	// under the same trace (see internal/trace).
	Tracer *trace.Tracer
}

// Health is one shard's observed state. Down is the compatibility view of
// the circuit: true whenever the breaker is not closed.
type Health struct {
	Addr                string
	Bodies              Range
	Down                bool
	Breaker             BreakerState
	Requests            uint64
	Failures            uint64
	Hedged              uint64 // always 0: the client does not hedge; kept for existing readers
	ShortCircuits       uint64 // requests answered by an open circuit, no wire traffic
	BreakerOpens        uint64 // closed/half-open → open transitions
	ReopenIn            time.Duration
	ConsecutiveFailures int
	LastErr             string
}

// shardHealth tracks one shard's wire counters under a mutex plus its
// circuit breaker (the counters are touched once per request per shard;
// contention is negligible next to a network round trip). Requests and
// failures count actual wire attempts; short-circuited requests count only
// in shortCircuits — an open circuit generating zero traffic must not look
// like a shard failing traffic.
type shardHealth struct {
	mu            sync.Mutex
	requests      uint64
	failures      uint64
	shortCircuits uint64
	lastErr       string
	br            *breaker
}

// succeed records one successful exchange: it closes the circuit and clears
// the failure streak.
func (h *shardHealth) succeed() {
	h.mu.Lock()
	h.requests++
	h.lastErr = ""
	h.mu.Unlock()
	h.br.recordSuccess()
}

func (h *shardHealth) fail(err error) {
	h.mu.Lock()
	h.requests++
	h.failures++
	if err != nil {
		h.lastErr = err.Error()
	}
	h.mu.Unlock()
	h.br.recordFailure(time.Now())
}

func (h *shardHealth) shortCircuit() {
	h.mu.Lock()
	h.shortCircuits++
	h.mu.Unlock()
}

// taggedRuntime ties a runtime to the configuration epoch that built it, so
// Reconfigure can retire stale runtimes as they are released. It is checked
// out by one request at a time, which makes it the owner of that request's
// gather: what the shards answered is decoded into it, not into the pooled
// connections (released, and possibly answering someone else, before the
// gather is read), and it is retired together with its runtime.
type taggedRuntime struct {
	rt    *Runtime
	epoch uint64

	legs     []gathered          // one per shard
	features []*tensor.Tensor    // the N bodies' features in body order
	tail     nn.Scratch[float64] // the tail pass

	// The scatter, built with the runtime so a request's fan-out allocates
	// nothing: scatter[k-1] runs shard k ≥ 1's leg on a goroutine of its own
	// (shard 0's runs on the caller's) and joins on wg. The legs read the
	// request from ctx, feats and tc, which Infer clears after the join.
	scatter []func()
	wg      sync.WaitGroup
	ctx     context.Context
	feats   *tensor.Tensor
	tc      trace.Context
}

// gathered is one shard's share of a request.
type gathered struct {
	res     comm.Exchanged // the shard's answer, decoded in place
	timing  comm.Timing
	retries int // attempts beyond the first, marked in the trace after the join
	err     error
}

// Client is the scatter-gather runtime over a sharded fleet: one connection
// pool per shard, concurrent fan-out of each request's features to all K
// shards, reassembly of the N feature vectors in body order, and the secret
// selection applied locally. Safe for concurrent use.
type Client struct {
	cfg    Config
	pools  []*comm.Pool
	health []*shardHealth
	// fps are the per-shard exchange fault sites (shard/exchange/<k>),
	// consulted once per attempt leg — one atomic load each when disarmed.
	fps []*faultpoint.Site

	// acts recycles trace span storage across requests so a traced Infer
	// performs no per-request span allocation.
	acts sync.Pool

	mu         sync.Mutex
	newRuntime func() (*Runtime, error)
	rtEpoch    uint64
	runtimes   []*taggedRuntime
}

// NewClient validates the fleet layout and wires one connection pool per
// shard. Connections are dialed lazily, so a fleet with a dead shard still
// constructs — the failure surfaces per request, where the selector decides
// whether it matters.
func NewClient(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("shard: client needs at least one shard address")
	}
	if len(cfg.Addrs) != len(cfg.Ranges) {
		return nil, fmt.Errorf("shard: %d addresses for %d body ranges", len(cfg.Addrs), len(cfg.Ranges))
	}
	if cfg.NewRuntime == nil {
		return nil, fmt.Errorf("shard: client needs a runtime factory")
	}
	lo := 0
	for k, r := range cfg.Ranges {
		if r.Lo != lo || r.Hi <= r.Lo {
			return nil, fmt.Errorf("shard: ranges must be contiguous and non-empty; shard %d has %v after offset %d", k, r, lo)
		}
		lo = r.Hi
	}
	if lo != cfg.N {
		return nil, fmt.Errorf("shard: ranges cover %d bodies, config says N=%d", lo, cfg.N)
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.BreakerBackoff <= 0 {
		cfg.BreakerBackoff = 500 * time.Millisecond
	}
	if cfg.BreakerMaxBackoff <= 0 {
		cfg.BreakerMaxBackoff = 15 * time.Second
	}
	if cfg.BreakerJitter == 0 {
		cfg.BreakerJitter = 0.2
	}
	if cfg.BreakerSeed == 0 {
		cfg.BreakerSeed = 1
	}
	c := &Client{cfg: cfg, newRuntime: cfg.NewRuntime}
	c.acts.New = func() any { return new(trace.Active) }
	for k, addr := range cfg.Addrs {
		pool, err := comm.NewPool(addr, cfg.PoolSize, func(cc *comm.Client) error {
			cc.Model = cfg.Model
			cc.Version = cfg.Version
			return nil
		}, comm.WithDialFault(fmt.Sprintf("shard/dial/%d", k)))
		if err != nil {
			for _, p := range c.pools {
				p.Close()
			}
			return nil, err
		}
		c.pools = append(c.pools, pool)
		c.health = append(c.health, &shardHealth{br: newBreaker(
			cfg.DownAfter, cfg.BreakerBackoff, cfg.BreakerMaxBackoff,
			cfg.BreakerJitter, cfg.BreakerSeed+int64(k))})
		c.fps = append(c.fps, faultpoint.New(fmt.Sprintf("shard/exchange/%d", k)))
	}
	return c, nil
}

// Shards reports the fleet size K.
func (c *Client) Shards() int { return len(c.pools) }

// Health snapshots every shard's observed state, in shard order.
func (c *Client) Health() []Health {
	now := time.Now()
	out := make([]Health, len(c.health))
	for k, h := range c.health {
		state, consecFails, opens, reopenIn := h.br.snapshot(now)
		h.mu.Lock()
		out[k] = Health{
			Addr:                c.cfg.Addrs[k],
			Bodies:              c.cfg.Ranges[k],
			Down:                state != BreakerClosed,
			Breaker:             state,
			Requests:            h.requests,
			Failures:            h.failures,
			ShortCircuits:       h.shortCircuits,
			BreakerOpens:        opens,
			ReopenIn:            reopenIn,
			ConsecutiveFailures: consecFails,
			LastErr:             h.lastErr,
		}
		h.mu.Unlock()
	}
	return out
}

// Reconfigure swaps the runtime factory — the client half of a selector
// rotation or model hot swap. In-flight requests finish on the runtime they
// acquired; released stale runtimes are dropped and subsequent requests
// build fresh ones through the new factory. The shard servers see nothing:
// a rotation changes only the client-side secret.
func (c *Client) Reconfigure(newRuntime func() (*Runtime, error)) {
	if newRuntime == nil {
		return
	}
	c.mu.Lock()
	c.newRuntime = newRuntime
	c.rtEpoch++
	c.runtimes = nil
	c.mu.Unlock()
}

// Close tears down every shard pool.
func (c *Client) Close() error {
	var first error
	for _, p := range c.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Client) acquireRuntime() (*taggedRuntime, error) {
	c.mu.Lock()
	if n := len(c.runtimes); n > 0 {
		rt := c.runtimes[n-1]
		c.runtimes = c.runtimes[:n-1]
		c.mu.Unlock()
		return rt, nil
	}
	factory, epoch := c.newRuntime, c.rtEpoch
	c.mu.Unlock()
	rt, err := factory()
	if err != nil {
		return nil, fmt.Errorf("shard: building client runtime: %w", err)
	}
	if rt == nil || rt.Features == nil || rt.Select == nil || rt.Tail == nil {
		return nil, fmt.Errorf("shard: runtime factory returned an incompletely wired runtime")
	}
	tg := &taggedRuntime{rt: rt, epoch: epoch,
		legs: make([]gathered, len(c.pools)), features: make([]*tensor.Tensor, c.cfg.N)}
	for k := 1; k < len(c.pools); k++ {
		tg.scatter = append(tg.scatter, func() {
			defer tg.wg.Done()
			c.leg(tg, k)
		})
	}
	return tg, nil
}

func (c *Client) releaseRuntime(rt *taggedRuntime) {
	c.mu.Lock()
	if rt.epoch == c.rtEpoch {
		c.runtimes = append(c.runtimes, rt)
	}
	c.mu.Unlock()
}

// Infer runs one collaborative inference across the fleet: head features
// computed once locally, scattered to all K shards concurrently, the N
// feature vectors gathered in body order, and selection + tail applied
// locally. The round-trip component of the returned timing is the
// wall-clock of the slowest shard (the fan-out is concurrent); byte counts
// sum over shards.
func (c *Client) Infer(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, comm.Timing, error) {
	tagged, err := c.acquireRuntime()
	if err != nil {
		return nil, comm.Timing{}, err
	}
	logits, t, err := c.infer(ctx, tagged, x)
	// Not deferred: a request that panics (an armed panic fault on shard 0's
	// leg, which runs on this goroutine) must not recycle a runtime whose
	// other legs may still be in flight.
	c.releaseRuntime(tagged)
	return logits, t, err
}

func (c *Client) infer(ctx context.Context, tagged *taggedRuntime, x *tensor.Tensor) (logits *tensor.Tensor, t comm.Timing, err error) {
	rt := tagged.rt

	// This is the root leg of the trace: the ID minted here rides every
	// shard exchange, and the retention coin is flipped once so all legs
	// retain (or not) together. Only this goroutine touches act — the
	// per-shard legs report through their gathered slots and the scatter
	// spans are recorded after the join.
	tr := c.cfg.Tracer
	var act *trace.Active
	var tc trace.Context
	if tr != nil {
		act = c.acts.Get().(*trace.Active)
		tc = tr.Root(act)
		defer func() {
			tr.Finish(act, err != nil)
			c.acts.Put(act)
		}()
	}

	start := time.Now()
	feats := rt.Features(x)
	t.Client = time.Since(start)
	tr.SpanArg(act, trace.StageClient, 0, start, t.Client)

	// Shard 0's leg runs here, the others on the runtime's scatter closures.
	// wg.Wait returns only once every leg is off the wire, so no leg outlives
	// this call reading feats (runtime storage) or writing the gather.
	netStart := time.Now()
	legs := tagged.legs
	tagged.ctx, tagged.feats, tagged.tc = ctx, feats, tc
	tagged.wg.Add(len(tagged.scatter))
	for _, leg := range tagged.scatter {
		go leg()
	}
	c.leg(tagged, 0)
	tagged.wg.Wait()
	tagged.ctx, tagged.feats, tagged.tc = nil, nil, trace.Context{}
	t.RoundTrip = time.Since(netStart)
	for k := range legs {
		t.BytesUp += legs[k].timing.BytesUp
		t.BytesDown += legs[k].timing.BytesDown
	}
	if tr != nil {
		// One scatter span per shard (Arg = shard index; duration is that
		// shard's cumulative round-trip time, retries included), plus a
		// zero-length marker span for every retry.
		for k := range legs {
			tr.SpanArg(act, trace.StageScatter, int32(k), netStart, legs[k].timing.RoundTrip)
			for r := 0; r < legs[k].retries; r++ {
				tr.SpanArg(act, trace.StageRetry, int32(k), netStart, 0)
			}
		}
	}

	// Every shard whose features the selection will consume must have
	// answered from the same model epoch: during a rolling fleet reload,
	// one shard may serve a newer version than another, and mixing their
	// body outputs would produce logits matching neither pipeline — with
	// nothing downstream able to tell. Shape-identical wrongness must be
	// rejected here or nowhere. Unselected shards are exempt for the same
	// reason their death is survivable: their features are never read, so
	// a version-skewed answer from one is as harmless as no answer — and
	// exempting them is what keeps a rolling reload zero-downtime for
	// clients whose selection sits on the already-consistent shards.
	epochK := -1
	for k := range legs {
		if legs[k].err != nil || !selectionNeeds(rt.Selected, c.cfg.Ranges[k]) {
			continue
		}
		if epochK < 0 {
			epochK = k
			continue
		}
		first, res := &legs[epochK].res, &legs[k].res
		if res.Model != first.Model || res.Version != first.Version {
			return nil, t, fmt.Errorf("shard: selected bodies answered from mixed epochs (%s v%d at shard %d vs %s v%d at shard %d) — mid-reload, retry",
				first.Model, first.Version, epochK, res.Model, res.Version, k)
		}
	}

	features := tagged.features
	for k, r := range c.cfg.Ranges {
		if err := legs[k].err; err != nil {
			// Graceful degradation: the loss only matters if the secret
			// selection reads one of this shard's bodies. Unselected
			// entries are nil; Select never touches them.
			if selectionNeeds(rt.Selected, r) {
				return nil, t, fmt.Errorf("shard: shard %d (%s, bodies %s) hosts selected bodies and failed: %w",
					k, c.cfg.Addrs[k], r, err)
			}
			clear(features[r.Lo:r.Hi])
			continue
		}
		copy(features[r.Lo:r.Hi], legs[k].res.Features)
	}

	start = time.Now()
	logits, err = tagged.finish(features)
	tail := time.Since(start)
	t.Client += tail
	tr.SpanArg(act, trace.StageClient, 1, start, tail)
	return logits, t, err
}

// leg is shard k's share of tg's in-flight request: it fills the shard's
// slot of the gather.
func (c *Client) leg(tg *taggedRuntime, k int) {
	l := &tg.legs[k]
	l.timing, l.retries, l.err = c.exchange(tg.ctx, k, tg.feats, tg.tc, &l.res)
}

// selectionNeeds reports whether any selected body index falls in the
// range; a nil selection means every body is needed.
func selectionNeeds(selected []int, r Range) bool {
	if selected == nil {
		return true
	}
	for _, i := range selected {
		if r.Contains(i) {
			return true
		}
	}
	return false
}

// finish applies selection and tail and returns the logits as a fresh
// tensor the caller owns, converting a panic (a malformed response that
// slipped past per-tensor validation, or a Select touching a nil slot) into
// an error — shard servers are as untrusted as the monolith.
func (tg *taggedRuntime) finish(features []*tensor.Tensor) (logits *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			logits, err = nil, fmt.Errorf("shard: assembling response rejected: %v", r)
		}
	}()
	tg.tail.Reset()
	return tg.rt.Tail.ForwardInfer(tg.rt.Select(features), &tg.tail).Clone(), nil
}

// exchange runs the feature round trip against one shard with the
// configured retry policy, decoding the answer into res and updating the
// shard's circuit breaker; it reports the attempts beyond the first, which
// Infer marks in the trace after the join (the legs must not touch the shared
// trace.Active). An open circuit short-circuits without touching the wire; a
// half-open one admits this request as the single recovery probe. Every
// attempt passes the shard's exchange fault site first, and the trace context
// (if any) rides it, stitching the shard server's leg into the caller's trace.
func (c *Client) exchange(ctx context.Context, k int, feats *tensor.Tensor, tc trace.Context, res *comm.Exchanged) (comm.Timing, int, error) {
	h := c.health[k]
	var total comm.Timing
	retries := 0
	admit, probe := h.br.allow(time.Now())
	if !admit {
		// Short-circuit: no dial, no retries, a constant-cost refusal. The
		// decision depends only on the shard's observed health — never on
		// the selection — so the traffic pattern stays selection-
		// independent, and Infer's graceful degradation decides whether the
		// missing features matter.
		h.shortCircuit()
		return total, retries, fmt.Errorf("shard: shard %d (%s): %w", k, c.cfg.Addrs[k], ErrBreakerOpen)
	}
	attempts := 1 + c.cfg.Retries
	if probe {
		// The half-open probe is a single bounded attempt: its verdict alone
		// decides whether the circuit closes or reopens with doubled backoff.
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		if a > 0 {
			retries++
		}
		attemptCtx := ctx
		if probe {
			// Bound the probe: a black-holed host must not stall the
			// gather for the kernel connect timeout.
			var cancel context.CancelFunc
			attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			defer cancel()
		}
		var t comm.Timing
		err := c.fps[k].Inject()
		if err == nil {
			t, err = c.pools[k].ExchangeTraced(attemptCtx, feats, tc, res)
		}
		total.BytesUp += t.BytesUp
		total.BytesDown += t.BytesDown
		total.RoundTrip += t.RoundTrip
		// A response carrying the wrong feature count is a shard failure
		// like any other (a misconfigured or stale fleet member), and it
		// must count against the shard's health before success is
		// recorded — otherwise a persistently wrong shard would look
		// healthy forever.
		if err == nil && len(res.Features) != c.cfg.Ranges[k].Len() {
			err = fmt.Errorf("shard: shard %d returned %d features for %d hosted bodies", k, len(res.Features), c.cfg.Ranges[k].Len())
		}
		if err == nil {
			h.succeed()
			return total, retries, nil
		}
		lastErr = err
	}
	// A caller-side cancellation or deadline says nothing about the
	// shard's health — charging it would open circuits on healthy shards
	// under an impatient client. An admitted half-open probe must still
	// hand its slot back, or the circuit wedges half-open with every
	// future request short-circuited.
	if ctx.Err() == nil {
		h.fail(lastErr)
	} else if probe {
		h.br.releaseProbe()
	}
	return total, retries, lastErr
}
