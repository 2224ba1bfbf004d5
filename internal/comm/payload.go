package comm

// The element-typed half of the serving path. A server computes in one
// precision (WithPrecision: float64, the reference oracle and default, or
// float32), and everything about a request that depends on that choice — the
// arena its tensors live in, the decoded input, the response tensors, the
// validate → forward → copy → noise pass over the bodies — is payload[T] and
// bodySet[T], written once over the element type. A request is one
// [B,C,H,W] feature tensor, and its B rows go through every body in one
// pass. The rest of the server (job recycling, codec's framing, metrics,
// tracing, budget) never names an element type: it reaches the tensors
// through the tensors interface, and the server's Precision picks the
// instantiation in exactly two places, newJob and generations.get.
//
// On a float32 server whose connection negotiated the f32 wire, decode →
// forward → encode performs no float64 conversion at all: the payload bits
// feed the kernels directly. An f64-wire frame narrows once, in the wire
// reader itself, and its response widens exactly in the wire writer — so one
// server precision serves either payload width with one rounding step.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// Precision selects the element type the compute path runs in.
type Precision int

const (
	// PrecisionF64 computes in float64 — the reference oracle, bit-identical
	// to every release before precision dispatch existed. The default.
	PrecisionF64 Precision = iota
	// PrecisionF32 compiles the bodies to float32 and serves on the f32
	// kernels: half the memory traffic, forward drift bounded at 1e-5
	// relative by the nn and audit property tests.
	PrecisionF32
)

func (p Precision) String() string {
	if p == PrecisionF32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses the -precision flag / registry manifest form. The
// empty string is the float64 default, matching manifests that predate the
// field.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	}
	return 0, fmt.Errorf("comm: unknown precision %q (want f64 or f32)", s)
}

// WithPrecision selects the compute element type for every model the server
// hosts. Either precision serves a compiled form of the bodies (nn.Compile),
// which every built-in layer has; a model that does not compile fails its
// requests with the compile error rather than falling back to another path.
func WithPrecision(p Precision) ServerOption {
	return func(o *serverOptions) { o.precision = p }
}

// tensors is the element-type-erased face of payload[T]: everything the
// serving path does to one job's tensors.
type tensors interface {
	// reset reclaims the payload for the next request, invalidating every
	// arena tensor. Must only run after the response has been fully encoded.
	reset()
	// parse decodes a request frame body (routing header into req, tensors
	// into the payload).
	parse(body []byte, req *Request, tc *trace.Context) error
	// appendResponse encodes resp's header and, if served, the payload's
	// response tensors as a response frame body.
	appendResponse(buf []byte, resp *Response, f32 bool, traceID uint64) ([]byte, error)
	// rows reports the request's row count.
	rows() int
	// observe mirrors the request's validated tensor into o.
	observe(o FeatureObserver, model string, version int)
	// noise perturbs a served response in place.
	noise(rng *uint64, sigma float64)
	// answered reports whether the payload holds a complete response.
	answered() bool
	// pass runs one forward pass over run, a worker's *bodySet[T], for j —
	// the job this payload belongs to — answering it in the epoch's name.
	pass(j *job, run any, epoch Response)
}

// payload is one job's tensors at the serving precision: the decoded
// request, the response, and the arena backing both. It recycles with its
// job, which is what keeps the steady-state loop allocation-free.
type payload[T tensor.Float] struct {
	// arena backs the decoded request tensor and every response tensor;
	// reset by the connection writer once the response is encoded.
	arena tensor.Arena[T]

	input   *tensor.Dense[T]   // the request's feature tensor
	outputs []*tensor.Dense[T] // the response, one tensor per body
	served  bool               // outputs hold a complete response

	shape [maxWireRank]int // scratch for decoding the input's shape
}

func (p *payload[T]) reset() {
	p.input = nil
	p.outputs = p.outputs[:0]
	p.served = false
	p.arena.Reset()
}

func (p *payload[T]) parse(body []byte, req *Request, tc *trace.Context) error {
	return parseRequestInto(body, req, p, tc)
}

func (p *payload[T]) answered() bool { return p.served }

func (p *payload[T]) appendResponse(buf []byte, resp *Response, f32 bool, traceID uint64) ([]byte, error) {
	var feats []*tensor.Dense[T]
	if p.served {
		feats = p.outputs
	}
	return appendResponse(buf, resp, feats, f32, traceID)
}

// rows tolerates malformed wire data (shapes are validated later, on the
// compute path).
func (p *payload[T]) rows() int {
	if in := p.input; in != nil && len(in.Shape) > 0 && in.Shape[0] > 0 {
		return in.Shape[0]
	}
	return 0
}

// observe hands the observer the request's tensor. observeTensor validates
// it fully first — the same structural-honesty check the compute path
// applies — because the observer may copy what it is handed: an
// attacker-controlled Shape claiming 2^62 elements over an empty Data slice
// must be rejected there, not allocated by the sampler (the compute path
// re-validates later; that redundancy is the trust boundary). Kept only for
// bench/ until ROADMAP item 2.
func (p *payload[T]) observe(o FeatureObserver, model string, version int) {
	observeTensor(o, model, version, p.input)
}

func (p *payload[T]) noise(rng *uint64, sigma float64) {
	if !p.served {
		return
	}
	for _, t := range p.outputs {
		noiseData(rng, t.Data, sigma)
	}
}

// pass is the serve path's validate → forward → copy → noise. An invalid
// request is answered with its error. A valid one is forwarded where it was
// decoded; the job then copies every body's output out of the body set's
// storage into its own arena and is noised per its budget verdict.
func (p *payload[T]) pass(j *job, run any, epoch Response) {
	if err := validateFeatures(p.input); err != nil {
		j.resp = epoch
		j.resp.Err = err.Error()
		return
	}
	for _, out := range run.(*bodySet[T]).forward(p.input) {
		p.outputs = append(p.outputs, p.arena.Clone(out))
	}
	p.served = true
	j.resp = epoch
	noiseResponse(j)
}

// bodySet is one generation's bodies as one worker runs them at the serving
// precision: the compiled nets, shared read-only with every other worker,
// the worker's scratch they run over, and one output tensor per body, which
// holds the body's rows of the set's latest pass until its next request.
// That storage grows only past the largest pass the set has served, so
// steady-state requests allocate nothing whatever their row counts.
type bodySet[T tensor.Float] struct {
	nets []*nn.Compiled[T]
	mem  *workerScratch[T]
	kept []tensor.Dense[T]  // body i's output of the latest pass
	outs []*tensor.Dense[T] // &kept[i], the list forward returns
}

func newBodySet[T tensor.Float](nets []*nn.Compiled[T], mem *workerScratch[T]) *bodySet[T] {
	n := len(nets)
	bs := &bodySet[T]{nets: nets, mem: mem, kept: make([]tensor.Dense[T], n), outs: make([]*tensor.Dense[T], n)}
	for i := range bs.outs {
		bs.outs[i] = &bs.kept[i]
	}
	return bs
}

// forward runs every body of the set over x in inference mode and returns
// their outputs in body order (see workerScratch.forward).
func (bs *bodySet[T]) forward(x *tensor.Dense[T]) []*tensor.Dense[T] {
	bs.mem.forward(bs, x)
	return bs.outs
}

// workerScratch is one worker's activation memory at the serving precision,
// shared by every generation it meets: one nn.Scratch per task. A
// multi-worker server's worker runs one task, its bodies one after another:
// the pool is the one level of parallelism, and N workers × serial bodies
// keeps every core on dedicated cache-resident work. A single-worker
// server's pool has none to offer and ForwardInfer's kernels are serial, so
// its worker runs min(N, GOMAXPROCS) tasks: itself and goroutines started
// from prebuilt funcs (a go statement over a stored no-argument func
// allocates nothing), each taking body indices from next until none is
// left. The zero value has no tasks; grow adds them.
type workerScratch[T tensor.Float] struct {
	scratches []*nn.Scratch[T] // task t's scratch; task 0 is the worker itself
	panics    []any            // what task t's share of the pass panicked with
	tasks     []func()         // tasks[t-1] runs task t ≥ 1 and joins on wg
	wg        sync.WaitGroup

	// The pass in flight: its set and input, and the next body to take.
	set  *bodySet[T]
	x    *tensor.Dense[T]
	next atomic.Int32
}

// grow gives the worker k tasks, if it has fewer. It runs only between
// passes, when the worker meets a generation of more bodies than any before.
func (w *workerScratch[T]) grow(k int) {
	for t := len(w.scratches); t < k; t++ {
		w.scratches = append(w.scratches, &nn.Scratch[T]{})
		w.panics = append(w.panics, nil)
		if t > 0 {
			w.tasks = append(w.tasks, func() {
				defer w.wg.Done()
				w.run(t)
			})
		}
	}
}

// forward runs every body of bs over x and leaves body i's output in
// bs.kept[i]: task 0 on the calling goroutine, and as many other tasks as
// there are bodies beyond the first, up to the worker's tasks, on goroutines
// of their own. The worker keeps a share for itself: one that only started
// its tasks and waited saw them exit on other Ps, whose free lists its next
// go statements do not draw on, and allocated fresh goroutines (3 allocs
// per request in TestServerComputeLoopZeroAllocs under -race at -cpu 4).
// Each scratch is Reset at the START of a body's pass, never after, so a pass
// that panics mid-network (hostile shapes that clear validateFeatures but
// break deeper in) cannot leave un-reset arenas accumulating demand across
// malformed requests — the next body's reset reclaims them. Once every task
// has joined, the counter and every panic slot are cleared — a stale one
// would fail the next, healthy pass — and the first panic is re-raised on
// the calling goroutine for compute's recover to absorb.
func (w *workerScratch[T]) forward(bs *bodySet[T], x *tensor.Dense[T]) {
	w.set, w.x = bs, x
	k := min(len(bs.nets), len(w.scratches))
	w.wg.Add(k - 1)
	for _, task := range w.tasks[:k-1] {
		go task()
	}
	w.run(0)
	w.wg.Wait()
	w.set, w.x = nil, nil
	w.next.Store(0)
	var first any
	for t, r := range w.panics {
		if first == nil {
			first = r
		}
		w.panics[t] = nil
	}
	if first != nil {
		panic(first)
	}
}

// run is task t's share of a pass: it takes the next untaken body until none
// is left, and records a panic in its slot so that the pass still joins every
// task before re-raising it.
func (w *workerScratch[T]) run(t int) {
	defer func() {
		if r := recover(); r != nil {
			w.panics[t] = r
		}
	}()
	sc, bs := w.scratches[t], w.set
	for {
		i := int(w.next.Add(1)) - 1
		if i >= len(bs.nets) {
			return
		}
		sc.Reset()
		bs.kept[i].CopyFrom(bs.nets[i].ForwardInfer(w.x, sc))
	}
}
