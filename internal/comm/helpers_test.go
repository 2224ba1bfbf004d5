package comm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// encodeResponse encodes a float64 Response — a literal, or one a fake
// server in a test built — the way any holder of one does: its own Features
// are the tensors.
func encodeResponse(buf []byte, resp *Response, f32 bool, traceID uint64) ([]byte, error) {
	return appendResponse(buf, resp, resp.Features, f32, traceID)
}

// parseResponse decodes a response frame body onto the heap: the zero arena
// is never Reset, so the result is the test's to keep.
func parseResponse(body []byte, resp *Response, echo *uint64) error {
	var heap tensor.Arena[float64]
	return parseResponseInto(body, resp, echo, &heap)
}

// pooledExchange runs one pooled exchange into an Exchanged of its own, which
// the test keeps past the connection's release.
func pooledExchange(ctx context.Context, p *Pool, features *tensor.Tensor) (*Exchanged, Timing, error) {
	ex := new(Exchanged)
	t, err := p.ExchangeTraced(ctx, features, trace.Context{}, ex)
	return ex, t, err
}

// GobStreamOpener is how a client of the retired gob protocol opened its
// stream: the type definition of Request, captured from the last tree that
// spoke it (exported to the package's external tests).
const GobStreamOpener = "D\x7f\x03\x01\x01\aRequest\x01\xff\x80\x00\x01\x04\x01\x05Model\x01\f\x00"

// bitsDiffer reports the first way got is not want, shape and bit pattern
// (NaN payloads and signed zeros included).
func bitsDiffer(got, want *tensor.Tensor) error {
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

// BitsDiffer is bitsDiffer, exported to the package's external tests.
var BitsDiffer = bitsDiffer

// CompiledSeqs reports, in order, the Seqs of the body generations srv holds
// compiled (exported to the package's external tests).
func CompiledSeqs(srv *Server) []uint64 {
	srv.gens.mu.Lock()
	defer srv.gens.mu.Unlock()
	var seqs []uint64
	for k := range srv.gens.m {
		seqs = append(seqs, k.seq)
	}
	slices.Sort(seqs)
	return seqs
}

// setRequest loads req into a float64 job the way the codec delivers one:
// routing header in j.req, tensors in the payload. Unlike the codec it takes
// any tensor, including ones no frame could carry — the lies the compute
// path's own validation exists to catch.
func setRequest(j *job, req Request) {
	j.req = Request{Model: req.Model, Version: req.Version}
	payloadOf[float64](j).input = req.Features
}

// jobFor returns a fresh float64 job carrying req (see setRequest).
func jobFor(req Request) *job {
	j := newJob[float64]()
	setRequest(j, req)
	return j
}

// referenceBodies recomputes what the server's bodies produce for x —
// codecBodies is seeded, so a private rebuild gives the exact expectation.
func referenceBodies(nBodies int, x *tensor.Tensor) []*tensor.Tensor {
	bodies := codecBodies(nBodies)
	out := make([]*tensor.Tensor, nBodies)
	for i, b := range bodies {
		out[i] = b.Forward(x, false)
	}
	return out
}

// jobServer returns a func that serves one job at a time through s the way a
// worker does, over the worker body cache bc, and returns its reply, so a
// steady-state loop allocates nothing.
func jobServer(s *Server, bc *bodyCache) func(*job) *Response {
	return func(j *job) *Response {
		s.serve(j, bc)
		return <-j.reply
	}
}

// serveOne runs req through a float64 server's serve path on the calling
// goroutine, over a body cache of its own, and returns the response with
// the served tensors attached.
func serveOne(s *Server, req Request) *Response {
	j := jobFor(req)
	resp := *jobServer(s, s.newBodyCache())(j)
	if p := payloadOf[float64](j); p.served {
		resp.Features = p.outputs
	}
	return &resp
}

// jobRequest views a float64 job's binary-decoded request as a Request:
// routing header from j.req, tensors from the payload.
func jobRequest(j *job) *Request {
	return &Request{Model: j.req.Model, Version: j.req.Version, Features: payloadOf[float64](j).input}
}

// serveLoop drives the server loop the way a connection and a worker do,
// minus the sockets: each cycle decodes one request frame into the job,
// serves it, encodes the reply and recycles the job. Its steady state is what
// the zero-allocation pins and the BenchmarkServeRequestLoop* rows measure.
type serveLoop struct {
	tb      testing.TB
	srv     *Server
	bodies  *bodyCache
	job     *job
	body    []byte
	f32     bool             // the connection's wire: f32 payloads both ways
	account *privacy.Account // charged per request when the server has a guard
	tracer  *trace.Tracer    // when set, each job's leg is traced as a connection would
	encBuf  []byte
}

// newServeLoop returns a loop over srv decoding req.
func newServeLoop(tb testing.TB, srv *Server, req *Request, f32 bool) *serveLoop {
	l := &serveLoop{tb: tb, srv: srv, bodies: srv.newBodyCache(),
		job: srv.newJob(), f32: f32, encBuf: make([]byte, 0, 1<<20)}
	l.request(req)
	return l
}

// request sets the frame every later cycle decodes.
func (l *serveLoop) request(req *Request) { l.body = RequestFrame(l.tb, req, l.f32) }

// RequestFrame encodes req as a request frame body on the f64 or f32 wire
// (exported to the package's external tests).
func RequestFrame(tb testing.TB, req *Request, f32 bool) []byte {
	body, err := appendRequest(nil, req, f32, trace.Context{})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FrameServer exposes one worker's serve path to the package's external
// tests: each call of the returned func decodes a request frame body into
// one job, serves it through the body cache every call shares, and
// returns the reply, valid until the next call. Its steady state allocates
// nothing.
func FrameServer(tb testing.TB, srv *Server) func(body []byte) *Response {
	j := srv.newJob()
	serve := jobServer(srv, srv.newBodyCache())
	return func(body []byte) *Response {
		j.reset()
		if err := j.pay.parse(body, &j.req, &j.wireTrace); err != nil {
			tb.Fatal(err)
		}
		return serve(j)
	}
}

func (l *serveLoop) cycle() {
	tr, j := l.tracer, l.job
	if err := j.pay.parse(l.body, &j.req, &j.wireTrace); err != nil {
		l.tb.Fatal(err)
	}
	j.account = l.account
	if tr != nil { // what the connection's reader does
		tr.Begin(&j.tr, j.wireTrace)
		j.handedAt = time.Now()
	}
	l.srv.serve(j, l.bodies)
	resp := <-j.reply
	if resp.Err != "" {
		l.tb.Fatal(resp.Err)
	}
	var err error
	if l.encBuf, err = j.pay.appendResponse(append(l.encBuf[:0], 0, 0, 0, 0), resp, l.f32, j.wireTrace.ID); err != nil {
		l.tb.Fatal(err)
	}
	if tr != nil { // what the connection's writer does
		tr.Span(&j.tr, trace.StageEncode, j.handedAt, time.Since(j.handedAt))
		tr.Finish(&j.tr, false)
	}
	j.reset()
}

// warm runs two cycles: the first compiles the bodies and sizes every arena
// and buffer, the second settles them.
func (l *serveLoop) warm() {
	l.cycle()
	l.cycle()
}

// allocs warms the loop up and reports its steady-state allocations per cycle.
func (l *serveLoop) allocs() float64 {
	l.warm()
	return testing.AllocsPerRun(20, l.cycle)
}

// bench warms the loop up and times b.N cycles.
func (l *serveLoop) bench(b *testing.B) {
	l.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle()
	}
}

// NewServer is the single-model server the tests run: NewModelServer over a
// fixed body slice, which it compiles once and only reads (see
// ServedModel). A single-worker server (WithWorkers(1)) fans each request's
// per-body passes out across goroutines instead.
func NewServer(bodies []*nn.Network, opts ...ServerOption) *Server {
	if len(bodies) == 0 {
		panic("comm: server needs at least one body")
	}
	return NewModelServer(&staticModel{bodies: bodies}, opts...)
}

// staticModel adapts a fixed body slice to the ModelProvider contract: one
// unnamed model, version 0, epoch never changing.
type staticModel struct {
	bodies []*nn.Network
}

func (m *staticModel) Resolve(model string, version int) (ServedModel, error) {
	if model != "" {
		return nil, fmt.Errorf("comm: unknown model %q (this server hosts a single unnamed model)", model)
	}
	if version != 0 {
		return nil, fmt.Errorf("comm: version pinning (v%d requested) requires a registry-backed server", version)
	}
	return m, nil
}

func (m *staticModel) Name() string          { return "" }
func (m *staticModel) Version() int          { return 0 }
func (m *staticModel) Seq() uint64           { return 0 }
func (m *staticModel) Bodies() []*nn.Network { return m.bodies }

// WithDrainTimeout replaces DefaultDrainTimeout: how long a graceful
// shutdown waits for in-flight responses to flush before force-closing
// connections.
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.drain = d
		}
	}
}

// scratchFootprint reports how many nn.Scratch the worker behind c holds at
// element type T — its own and any its body sets reach — and their backing
// bytes.
func scratchFootprint[T tensor.Float](c *bodyCache) (scratches, bytes int) {
	seen := map[*workerScratch[T]]bool{}
	if mem, ok := c.mem.(*workerScratch[T]); ok {
		seen[mem] = true
	}
	for _, bs := range c.sets {
		seen[bs.(*bodySet[T]).mem] = true
	}
	for mem := range seen {
		for _, sc := range mem.scratches {
			bytes += sc.Footprint()
		}
		scratches += len(mem.scratches)
	}
	return scratches, bytes
}

// payloadOf returns j's payload at its (known) element type.
func payloadOf[T tensor.Float](j *job) *payload[T] { return j.pay.(*payload[T]) }
