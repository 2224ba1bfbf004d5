package comm

// The element-typed half of the serving path. A server computes in one
// precision (WithPrecision: float64, the reference oracle and default, or
// float32), and everything about a request that depends on that choice — the
// arena its tensors live in, the decoded inputs, the response parts, the
// validate → stack → forward → split → noise pass over the bodies — is
// payload[T] and bodySet[T], written once over the element type and once
// for both request forms: a plain request is one input, a client-batched
// request several, and both take the same pass. The rest of the server (job
// recycling, codec's framing, metrics, tracing, budget) never names an
// element type: it reaches
// the tensors through the tensors interface, and the server's Precision
// picks the instantiation in exactly two places, newJob and generations.get.
//
// On a float32 server whose connection negotiated the f32 wire, decode →
// forward → encode performs no float64 conversion at all: the payload bits
// feed the kernels directly. An f64-wire frame narrows once, in the wire
// reader itself, and its response widens exactly in the wire writer — so one
// server precision serves either payload width with one rounding step.

import (
	"errors"
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
	// size reports the request's input tensor and total row counts.
	size() (inputs, rows int)
	// observe mirrors the request's validated tensors into o.
	observe(o FeatureObserver, model string, version int)
	// noise perturbs a served response in place.
	noise(rng *uint64, sigma float64)
	// answered reports whether the payload holds a complete response.
	answered() bool
	// pass runs one forward pass over run, a worker's *bodySet[T], for j —
	// the job this payload belongs to — answering it in the epoch's name.
	pass(s *Server, j *job, run any, epoch Response)
}

// payload is one job's tensors at the serving precision: the decoded
// request, the response parts, and the arena backing both. It recycles with
// its job, which is what keeps the steady-state loop allocation-free.
type payload[T tensor.Float] struct {
	// arena backs the decoded request tensors and every response tensor;
	// reset by the connection writer once the response is encoded.
	arena tensor.Arena[T]

	inputs  []*tensor.Dense[T] // the request's tensors: one, or one per client-batched input
	batched bool               // the request was client-batched, which fixes its response's wire form

	outputs [][]*tensor.Dense[T] // the response, [input][body]; a plain response is outputs[0]
	served  bool                 // outputs hold a complete response

	shape [maxWireRank]int // scratch for composing output shapes
}

func (p *payload[T]) reset() {
	p.inputs = p.inputs[:0]
	p.batched = false
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
	var outputs [][]*tensor.Dense[T]
	if p.served {
		if p.batched {
			outputs = p.outputs
		} else {
			feats = p.outputs[0]
		}
	}
	return appendResponse(buf, resp, feats, outputs, f32, traceID)
}

// size tolerates malformed wire data (shapes are validated later, on the
// compute path).
func (p *payload[T]) size() (inputs, rows int) {
	for _, in := range p.inputs {
		if in != nil && len(in.Shape) > 0 && in.Shape[0] > 0 {
			rows += in.Shape[0]
		}
	}
	return len(p.inputs), rows
}

// observe validates each tensor fully first — the same structural-honesty
// check the compute path applies — because the observer may copy what it is
// handed: an attacker-controlled Shape claiming 2^62 elements over an empty
// Data slice must be rejected here, not allocated by the sampler (the
// compute path re-validates later; that redundancy is the trust boundary).
// Kept only for bench/ until ROADMAP item 2.
func (p *payload[T]) observe(o FeatureObserver, model string, version int) {
	for _, in := range p.inputs {
		observeTensor(o, model, version, in)
	}
}

func (p *payload[T]) noise(rng *uint64, sigma float64) {
	if !p.served {
		return
	}
	for _, row := range p.outputs {
		for _, t := range row {
			noiseData(rng, t.Data, sigma)
		}
	}
}

// part copies rows [row, row+r) of one body's stacked output out of the
// body set's output storage into the job arena.
func (p *payload[T]) part(out *tensor.Dense[T], row, r int) *tensor.Dense[T] {
	per := out.Size() / out.Shape[0]
	shape := append(p.shape[:0], r)
	shape = append(shape, out.Shape[1:]...)
	part := p.arena.NewTensor(shape...)
	copy(part.Data, out.Data[row*per:(row+r)*per])
	return part
}

// validate checks a request's tensors before they join a pass: within the
// server's cap, each a structurally honest [N,C,H,W], and one [C,H,W] across
// a client-batched request's inputs, since stacking concatenates rows only.
func (p *payload[T]) validate(maxBatch int) error {
	if len(p.inputs) == 0 {
		return errors.New("comm: batched request carries no inputs")
	}
	if len(p.inputs) > maxBatch {
		return fmt.Errorf("comm: batch of %d exceeds server cap %d", len(p.inputs), maxBatch)
	}
	for _, in := range p.inputs {
		if err := validateFeatures(in); err != nil {
			return err
		}
		if a, b := p.inputs[0].Shape, in.Shape; a[1] != b[1] || a[2] != b[2] || a[3] != b[3] {
			return fmt.Errorf("comm: batched inputs disagree on feature shape: %v vs %v", a[1:], b[1:])
		}
	}
	return nil
}

// pass is the serve path's validate → stack → forward → split → noise, one
// for both request forms. An invalid request is answered with its error. A
// lone input is forwarded where it was decoded; a client-batched request's
// inputs, which validate holds to one [C,H,W], stack along the batch axis
// into the worker's stack, as private to the pass as the scratches its
// bodies run over. The job then copies its rows of every body's output into
// its own arena and is noised per its budget verdict.
func (p *payload[T]) pass(s *Server, j *job, run any, epoch Response) {
	if err := p.validate(s.opts.maxBatch); err != nil {
		j.resp = epoch
		j.resp.Err = err.Error()
		return
	}
	bodies := run.(*bodySet[T])
	x := p.inputs[0]
	if len(p.inputs) > 1 {
		total := 0
		for _, in := range p.inputs {
			total += in.Shape[0]
		}
		bodies.mem.stack.Reset()
		x = bodies.mem.stack.NewTensor(total, x.Shape[1], x.Shape[2], x.Shape[3])
		off := 0
		for _, in := range p.inputs {
			off += copy(x.Data[off:], in.Data)
		}
	}
	outs := bodies.forward(x)
	if cap(p.outputs) < len(p.inputs) {
		p.outputs = make([][]*tensor.Dense[T], len(p.inputs))
	}
	p.outputs = p.outputs[:len(p.inputs)]
	row := 0
	for i, in := range p.inputs {
		r := in.Shape[0]
		parts := p.outputs[i][:0]
		for _, out := range outs {
			parts = append(parts, p.part(out, row, r))
		}
		p.outputs[i] = parts
		row += r
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
// shared by every generation it meets: the stack a batched pass's inputs are
// stacked into, and one nn.Scratch per task. A multi-worker server's worker
// runs one task, its bodies one after another: the pool is the one level of
// parallelism, and N workers × serial bodies keeps every core on dedicated
// cache-resident work. A single-worker server's pool has none to offer and
// ForwardInfer's kernels are serial, so its worker runs min(N, GOMAXPROCS)
// tasks: itself and goroutines started from prebuilt funcs (a go statement
// over a stored no-argument func allocates nothing), each taking body
// indices from next until none is left. The zero value has no tasks; grow
// adds them.
type workerScratch[T tensor.Float] struct {
	stack tensor.Arena[T] // a pass's stacked input, when it has several

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
