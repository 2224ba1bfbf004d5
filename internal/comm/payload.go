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

// payloadOf returns j's payload at its (known) element type.
func payloadOf[T tensor.Float](j *job) *payload[T] { return j.pay.(*payload[T]) }

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
// body's scratch into the job arena.
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
// into the body set's stack, as private to the pass as the scratches its
// outputs land in. The job then copies its rows of every body's output into
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
		bodies.stack.Reset()
		x = bodies.stack.NewTensor(total, x.Shape[1], x.Shape[2], x.Shape[3])
		off := 0
		for _, in := range p.inputs {
			off += copy(x.Data[off:], in.Data)
		}
	}
	outs := bodies.forward(s.opts.workers, x)
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

// bodySet is one worker's bodies of one generation at the serving precision:
// the compiled nets, shared read-only with every other worker, and one
// inference scratch per body, private to the worker (one goroutine computes
// on it at a time) and holding every activation buffer a body pass needs, so
// steady-state requests allocate nothing.
type bodySet[T tensor.Float] struct {
	nets      []*nn.Compiled[T]
	scratches []*nn.Scratch[T]
	outs      []*tensor.Dense[T] // reusable per-body output list, valid until the next forward
	stack     tensor.Arena[T]    // backs a pass's stacked input when it has several

	// The single-worker fan-out's state (see forwardParallel), built with the
	// set so a fanned-out pass allocates nothing: x is the pass's input,
	// tasks[i-1] runs body i ≥ 1 and joins on wg, and panics[i] holds what
	// body i's pass panicked with.
	x      *tensor.Dense[T]
	tasks  []func()
	panics []any
	wg     sync.WaitGroup
}

func newBodySet[T tensor.Float](nets []*nn.Compiled[T]) *bodySet[T] {
	n := len(nets)
	bs := &bodySet[T]{nets: nets, scratches: make([]*nn.Scratch[T], n),
		outs: make([]*tensor.Dense[T], 0, n), panics: make([]any, n)}
	for i := range bs.scratches {
		bs.scratches[i] = &nn.Scratch[T]{}
		if i > 0 {
			bs.tasks = append(bs.tasks, func() {
				defer bs.wg.Done()
				bs.run(i)
			})
		}
	}
	return bs
}

// forward runs every body of the set over x in inference mode, each over its
// private scratch, returning outputs in body order. Each scratch is Reset at
// the START of its body's pass, never after: the results stay valid until
// the same set's next request, and a pass that panics mid-network
// (hostile shapes that clear validateFeatures but break deeper in) cannot
// leave un-reset arenas accumulating demand across malformed requests — the
// next request's reset reclaims them.
//
// With a multi-worker pool the bodies run serially — the pool is the one
// level of parallelism, and N workers × serial bodies keeps every core on
// dedicated cache-resident work instead of oversubscribing N×bodies
// goroutines. A single-worker server fans the bodies out instead: its pool
// has no parallelism to offer, and ForwardInfer's kernels are serial.
func (bs *bodySet[T]) forward(workers int, x *tensor.Dense[T]) []*tensor.Dense[T] {
	if workers > 1 || len(bs.nets) == 1 {
		outs := bs.outs[:0]
		for i, b := range bs.nets {
			sc := bs.scratches[i]
			sc.Reset()
			outs = append(outs, b.ForwardInfer(x, sc))
		}
		bs.outs = outs
		return outs
	}
	return bs.forwardParallel(x)
}

// forwardParallel is the single-worker server's per-body fan-out: body 0 runs
// on the calling goroutine, every other body on a goroutine started from its
// prebuilt task (a go statement over a stored no-argument func allocates
// nothing). Once all have joined, every panic slot is cleared — a stale one
// would fail the next, healthy pass — and the first panic is re-raised on
// the calling goroutine for compute's recover to absorb.
func (bs *bodySet[T]) forwardParallel(x *tensor.Dense[T]) []*tensor.Dense[T] {
	bs.x = x
	bs.outs = bs.outs[:len(bs.nets)]
	bs.wg.Add(len(bs.tasks))
	for _, task := range bs.tasks {
		go task()
	}
	bs.run(0)
	bs.wg.Wait()
	bs.x = nil
	var first any
	for i, r := range bs.panics {
		if first == nil {
			first = r
		}
		bs.panics[i] = nil
	}
	if first != nil {
		panic(first)
	}
	return bs.outs
}

// run is body i's share of a fanned-out pass, recording a panic in its slot
// so that the pass still joins every body before re-raising it.
func (bs *bodySet[T]) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			bs.panics[i] = r
		}
	}()
	sc := bs.scratches[i]
	sc.Reset()
	bs.outs[i] = bs.nets[i].ForwardInfer(bs.x, sc)
}
