package comm

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// DefaultMaxBatch caps how many inputs one batched request may carry unless
// overridden with WithMaxBatch.
const DefaultMaxBatch = 64

// DefaultDrainTimeout bounds how long a graceful shutdown waits for
// in-flight responses to flush before force-closing connections.
const DefaultDrainTimeout = 5 * time.Second

// ServedModel is one immutable published version of a model, as the server
// sees it. Seq is the server-body generation: it must change whenever the
// body weights change (a publish or reload), and may stay put across a
// version change that keeps them (a selector rotation). Together with Name it
// keys the server's compiled bodies: a stale Seq means the server keeps
// serving old weights, an unchanged one lets every worker keep its bodies.
// Bodies returns the generation's own body networks, read-only: the server
// compiles them once per (Name, Seq) and reads their weights for as long as
// it serves that generation, so nothing may train them meanwhile. It must be
// safe to call concurrently.
type ServedModel interface {
	Name() string
	Version() int
	Seq() uint64
	Bodies() []*nn.Network
}

// ModelProvider resolves the (model, version) pair a request carries to a
// live model. model "" asks for the provider's default and version 0 for the
// current version — what a client that sets neither sends. Resolve sits on the
// hot path: it runs once per request and must not block on locks held across
// slow work.
type ModelProvider interface {
	Resolve(model string, version int) (ServedModel, error)
}

// ServerOption configures a Server at construction time.
type ServerOption func(*serverOptions)

type serverOptions struct {
	workers   int
	maxBatch  int
	drain     time.Duration
	metrics   *ServerMetrics  // nil: no telemetry, zero hot-path cost
	observer  FeatureObserver // nil: no feature mirroring, zero hot-path cost
	tracer    *trace.Tracer   // nil: no tracing, zero hot-path cost
	guard     *privacy.Guard  // nil: no budget accounting, zero hot-path cost
	precision Precision       // compute element type; PrecisionF64 is the zero value
}

// WithWorkers bounds the compute worker pool (default GOMAXPROCS). Every
// worker runs the server's one compiled copy of the bodies over a scratch of
// its own, so a worker costs one body pass's activation memory, not body
// memory.
func WithWorkers(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.workers = n
		}
	}
}

// PinKernelParallelism caps the training kernels at one goroutine
// (tensor.SetKernelParallelism(1)) in a process about to run a worker pool
// of the given size beside them, so the two levels do not nest: kernel
// goroutines under a pool only oversubscribe the cores it saturates (8
// connections once measured 0.94× of one that way). A single-worker pool
// leaves the knob alone. A serving pass never reads the cap — ForwardInfer
// runs only the serial *Into kernels — so a serving binary need not call
// this; a harness that computes oracle predictions (tensor.ConvForward)
// while its servers run does. The knob is process-global: restore it with
// tensor.SetKernelParallelism(0).
func PinKernelParallelism(workers int) {
	if workers > 1 {
		tensor.SetKernelParallelism(1)
	}
}

// WithMaxBatch caps the number of inputs a single batched request may carry.
func WithMaxBatch(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.maxBatch = n
		}
	}
}

// Server hosts ensemble bodies for remote clients behind a bounded worker
// pool, resolving every request through a ModelProvider. Construct with
// NewModelServer, then call Serve; Serve may be called at most once per
// Server.
type Server struct {
	provider ModelProvider
	opts     serverOptions

	jobs chan *job

	// gens holds every body generation compiled once for all workers.
	gens generations

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// job is one request's full serving context: the decoded request, the reply
// channel the pool answers on, and the request-scoped payload (arena plus
// reusable slice storage) that makes the steady-state loop allocation-free.
// A job is recycled per connection — the reader draws one from the free
// list, the writer resets and returns it after the response bytes leave the
// process — so at pipelining depth d a connection owns d jobs, total.
type job struct {
	req   Request
	resp  Response
	reply chan *Response

	// pay holds the request's and response's tensors at the server's compute
	// precision (see payload.go); req carries only the routing header.
	pay tensors

	// Privacy-budget context, populated only when the server has a budget
	// guard. account is the connection's ledger account (resolved once at
	// negotiate time and stamped per request); noiseSigma is this request's
	// escalation-noise verdict; rng is the job's private noise state, seeded
	// lazily and kept across resets so successive noised responses draw a
	// fresh stream.
	account    *privacy.Account
	noiseSigma float64
	rng        uint64

	// Tracing context, populated only when the server has a tracer (see
	// internal/trace). wireTrace is the trace context the request arrived
	// with; traced marks that it arrived on a traced frame whose response
	// must echo the ID. decodeAt/decodeDur are the codec's parse timing,
	// handedAt the instant the job last changed hands — to the worker pool
	// (set by the reader), then back to the writer (set by the worker) — where
	// the receiving side's span starts, and tr the leg's span storage
	// — fixed-size and recycled with the job, so tracing allocates nothing.
	wireTrace trace.Context
	traced    bool
	decodeAt  time.Time
	decodeDur time.Duration
	handedAt  time.Time
	tr        trace.Active
}

// newJob returns a job whose payload computes at element type T.
func newJob[T tensor.Float]() *job {
	return &job{reply: make(chan *Response, 1), pay: &payload[T]{}}
}

// newJob returns a job at the server's compute precision.
func (s *Server) newJob() *job {
	if s.opts.precision == PrecisionF32 {
		return newJob[float32]()
	}
	return newJob[float64]()
}

// reset reclaims the job for the next request. Must only run after the
// response has been fully encoded: it invalidates every arena tensor.
func (j *job) reset() {
	j.req = Request{}
	j.resp = Response{}
	j.pay.reset()
	j.account = nil
	j.noiseSigma = 0
	j.wireTrace = trace.Context{}
	j.traced = false
	j.decodeAt, j.handedAt = time.Time{}, time.Time{}
	j.decodeDur = 0
	j.tr.Reset()
}

// NewModelServer creates a server that resolves every request's
// (model, version) header through the provider — typically a
// registry.Registry. Publishing a new version or rotating a selector in the
// provider swaps what subsequent requests compute against with zero
// downtime: in-flight requests finish on the epoch they resolved, and the
// first request to meet a new Seq compiles its bodies once for every worker
// (a rotation that keeps the bodies keeps the Seq, and so the compiled form).
func NewModelServer(p ModelProvider, opts ...ServerOption) *Server {
	if p == nil {
		panic("comm: server needs a model provider")
	}
	o := serverOptions{workers: runtime.GOMAXPROCS(0), maxBatch: DefaultMaxBatch, drain: DefaultDrainTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{
		provider: p,
		opts:     o,
		jobs:     make(chan *job),
		conns:    map[net.Conn]struct{}{},
	}
	s.gens.precision, s.gens.m = o.precision, map[epochKey]*generation{}
	return s
}

// Workers reports the effective size of the compute pool.
func (s *Server) Workers() int { return s.opts.workers }

// Serve accepts connections until ctx is cancelled or the listener fails,
// handling each client in its own goroutine. On cancellation it stops
// accepting, lets requests already decoded finish, flushes their responses,
// closes every connection, and returns nil. Clients that stop reading their
// responses are force-closed after the drain timeout (DefaultDrainTimeout) so
// shutdown always completes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := make(chan struct{})
	var workers sync.WaitGroup
	for i := 0; i < s.opts.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s.worker(stop)
		}()
	}

	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-watchDone:
		}
	}()

	var handlers sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr = err
			break
		}
		s.track(conn)
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
	close(watchDone)

	// Unblock every reader: requests already decoded still reach the pool
	// and their responses still flush, but no new requests are read. If a
	// client refuses to drain its responses, force-close it after the
	// timeout rather than hanging shutdown on its full send buffer.
	s.interruptReads()
	drained := make(chan struct{})
	go func() {
		handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(s.opts.drain):
		s.forceCloseConns()
		<-drained
	}
	// Handlers have drained: every submitted job was replied, so the
	// workers can stop.
	close(stop)
	workers.Wait()

	if ctx.Err() != nil {
		return nil // graceful shutdown
	}
	return acceptErr
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// interruptReads expires the read deadline on every live connection so
// blocked decoders return; writes are unaffected, letting in-flight replies
// drain.
func (s *Server) interruptReads() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Unix(1, 0))
	}
}

// forceCloseConns tears down every connection still open after the drain
// timeout, failing any write its handler is blocked on.
func (s *Server) forceCloseConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.SetDeadline(time.Unix(1, 0))
		conn.Close()
	}
}

// binServerCodec is one connection's wire protocol from the server side.
type binServerCodec struct {
	binFramer
	// timing is on when the server has a tracer: readRequest records the
	// parse timestamps the handler turns into decode spans.
	timing bool
}

// readRequest decodes the next request into j (arena-backed), recording the
// job's wire trace context and, with timing on, its decode timing.
func (c *binServerCodec) readRequest(j *job) error {
	body, err := c.readBody()
	if err != nil {
		return err
	}
	var t0 time.Time
	if c.timing {
		t0 = time.Now()
	}
	j.req = Request{}
	if err := j.pay.parse(body, &j.req, &j.wireTrace); err != nil {
		return err
	}
	if c.timing {
		j.decodeAt = t0
		j.decodeDur = time.Since(t0)
	}
	j.traced = j.wireTrace.ID != 0
	return nil
}

// writeResponse encodes one response, echoing j's trace context when the
// request arrived traced; it does not retain resp or its tensors past the call
// (the writer recycles them immediately after).
func (c *binServerCodec) writeResponse(j *job, resp *Response) error {
	var echo uint64
	if j.traced {
		echo = j.wireTrace.ID
	}
	buf, err := j.pay.appendResponse(c.frameStart(), resp, c.f32, echo)
	c.encBuf = buf
	if err != nil {
		return err
	}
	return writeFrame(c.w, buf)
}

// negotiate runs the server's half of the handshake on a fresh connection
// (see codec.go): it reads the 8-byte hello, acks the flags it accepts, and
// reads the client-ID frame an accepted identity flag promises. The returned
// clientID is "" for a peer that declared none, which the budget guard
// buckets by address instead. Any other opening
// is refused before a byte past the hello is read: no magic, no answer; the
// magic with another version, a version-0 ack the peer can report.
func (s *Server) negotiate(conn net.Conn, br *bufio.Reader) (*binServerCodec, string, error) {
	var hello [8]byte
	if _, err := io.ReadFull(br, hello[:4]); err != nil {
		return nil, "", err
	}
	if [4]byte(hello[:4]) != wireMagic {
		return nil, "", fmt.Errorf("comm: peer did not open with the wire hello")
	}
	if _, err := io.ReadFull(br, hello[4:]); err != nil {
		return nil, "", err
	}
	if hello[4] != wireVersion {
		refusal := helloBytes(0, 0)
		_, _ = conn.Write(refusal[:]) // best effort: the connection closes either way
		return nil, "", fmt.Errorf("comm: client hello names unsupported wire version %d", hello[4])
	}
	flags := hello[5] & (wireFlagF32 | wireFlagClientID)
	ack := helloBytes(wireVersion, flags)
	if _, err := conn.Write(ack[:]); err != nil {
		return nil, "", err
	}
	var clientID string
	if flags&wireFlagClientID != 0 {
		// The accepted flag obliges the client to send exactly one client-ID
		// frame before any request; a malformed one drops the connection.
		id, err := readClientIDFrame(br)
		if err != nil {
			return nil, "", err
		}
		clientID = id
	}
	return &binServerCodec{
		binFramer: binFramer{w: conn, r: br, f32: flags&wireFlagF32 != 0},
		timing:    s.opts.tracer != nil,
	}, clientID, nil
}

// handle processes one client connection until it closes or the server
// shuts down. Requests pipeline: a reader decodes and submits to the worker
// pool while a writer flushes responses in request order. Jobs (request
// context, arena, reply channel) recycle through the free list, so a
// connection's steady state decodes, computes, and encodes without heap
// allocation.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	codec, clientID, err := s.negotiate(conn, br)
	if err != nil {
		return
	}

	// Budget identity resolves once per connection: the declared client ID,
	// or the peer's address bucket. Every request on this connection charges
	// the same account.
	var acct *privacy.Account
	if g := s.opts.guard; g != nil {
		id := clientID
		if id == "" {
			id = addrBucket(conn.RemoteAddr())
		}
		acct = g.AccountFor(id)
	}

	// pending preserves request order across the concurrent pool: the writer
	// awaits each job's reply in FIFO order. free returns fully written jobs
	// to the reader. With at most cap(pending) jobs waiting on the writer and
	// one more being handed to the pool, a connection holds at most 33
	// decoded requests; past that the reader stops reading and TCP
	// backpressure holds the rest in the client.
	pending := make(chan *job, 32)
	free := make(chan *job, 64)
	tr := s.opts.tracer
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		failed := false
		for j := range pending {
			resp := <-j.reply
			if !failed {
				if err := codec.writeResponse(j, resp); err != nil {
					// The client is gone; closing the conn unblocks the
					// reader, and draining keeps submitted jobs from leaking.
					failed = true
					conn.Close()
				} else if tr != nil {
					// Encode runs from the worker's hand-off, so the wait
					// for this writer is attributed too.
					tr.Span(&j.tr, trace.StageEncode, j.handedAt, time.Since(j.handedAt))
				}
			}
			// The leg ends when its bytes leave (or the client is gone).
			if tr != nil {
				tr.Finish(&j.tr, failed || resp.Err != "")
			}
			j.reset()
			select {
			case free <- j:
			default: // reader gone or list full; let the job be collected
			}
		}
	}()

	for {
		var j *job
		select {
		case j = <-free:
		default:
			j = s.newJob()
		}
		if err := codec.readRequest(j); err != nil {
			break // client closed, protocol error, or shutdown deadline
		}
		j.account = acct
		if tr != nil {
			// The leg starts when the request's bytes were in hand: decode
			// counts against it, the blocking read before it does not.
			tr.BeginAt(&j.tr, j.wireTrace, j.decodeAt)
			if j.decodeDur > 0 {
				tr.Span(&j.tr, trace.StageDecode, j.decodeAt, j.decodeDur)
			}
			j.handedAt = time.Now()
		}
		pending <- j
		// The pool outlives every handler: Serve joins handlers before
		// stopping it, so an unconditional hand-off cannot deadlock and a
		// request that was decoded always gets an answer, even mid-shutdown,
		// honoring the drain guarantee without racing ctx.Done against a
		// free worker.
		s.jobs <- j
	}
	close(pending)
	writer.Wait()
}

// maxGenerations bounds how many body generations the server keeps compiled,
// and each worker keeps a body set for. A newer Seq of a model retires the
// model's older ones (see retire), so the bound is reached only when many
// models, or pinned versions of distinct publishes, are live at once.
const maxGenerations = 16

// epochKey identifies one body generation (ServedModel.Seq) of one model. A
// struct key keeps the per-request lookup allocation-free.
type epochKey struct {
	name string
	seq  uint64
}

// generation is one body generation compiled once for the whole server:
// newSet builds one worker's *bodySet[T] over the compiled nets, which every
// worker shares read-only, and the worker's scratch. A non-nil err answers
// the generation's requests instead: a model that cannot compile is never
// computed.
type generation struct {
	once   sync.Once
	newSet func(*bodyCache) any
	err    error
}

// generations is the server's compiled body generations, found under mu;
// the first worker to meet one compiles it, and every later one waits for
// that compile and reuses it.
type generations struct {
	precision Precision
	mu        sync.Mutex
	m         map[epochKey]*generation
}

// get returns m's generation, compiling it on first sight.
func (g *generations) get(key epochKey, m ServedModel) *generation {
	g.mu.Lock()
	gen := g.m[key]
	if gen == nil {
		gen = &generation{}
		g.m[key] = gen
		retire(g.m, key)
	}
	g.mu.Unlock()
	gen.once.Do(func() {
		switch bodies := m.Bodies(); {
		case len(bodies) == 0:
			gen.err = fmt.Errorf("comm: model %q v%d has no bodies", m.Name(), m.Version())
		case g.precision == PrecisionF32:
			gen.newSet, gen.err = compileBodies[float32](bodies)
		default:
			gen.newSet, gen.err = compileBodies[float64](bodies)
		}
	})
	return gen
}

// compileBodies compiles every body at element type T.
func compileBodies[T tensor.Float](bodies []*nn.Network) (func(*bodyCache) any, error) {
	nets := make([]*nn.Compiled[T], len(bodies))
	for i, b := range bodies {
		var err error
		if nets[i], err = nn.Compile[T](b); err != nil {
			return nil, err
		}
	}
	return func(c *bodyCache) any {
		mem, _ := c.mem.(*workerScratch[T])
		if mem == nil {
			mem = &workerScratch[T]{}
			c.mem = mem
		}
		tasks := 1
		if c.fan {
			tasks = min(len(nets), runtime.GOMAXPROCS(0))
		}
		mem.grow(tasks)
		return newBodySet(nets, mem)
	}, nil
}

// retire drops what caching key supersedes — older Seqs of the same model —
// and then the lowest Seqs past maxGenerations. A request pinned to a retired
// generation just caches it again.
func retire[V any](m map[epochKey]V, key epochKey) {
	for k := range m {
		if k.name == key.name && k.seq < key.seq {
			delete(m, k)
		}
	}
	for len(m) > maxGenerations {
		oldest := key
		for k := range m {
			if k != key && (oldest == key || k.seq < oldest.seq) {
				oldest = k
			}
		}
		delete(m, oldest)
	}
}

// bodyCache is one worker's view of the server's generations: a bodySet of
// its own over each generation's shared nets, found without a lock once
// built, and the one scratch every set runs over — made with the first set,
// at the serving precision, and kept across generations.
type bodyCache struct {
	gens *generations
	sets map[epochKey]any // *bodySet[T] at the serving precision
	mem  any              // *workerScratch[T] at the serving precision, nil until the first set
	fan  bool             // fan passes out across bodies: the server has a single worker
}

func (s *Server) newBodyCache() *bodyCache {
	return &bodyCache{gens: &s.gens, sets: map[epochKey]any{}, fan: s.opts.workers == 1}
}

// bodiesFor returns this worker's body set for m's generation.
func (c *bodyCache) bodiesFor(m ServedModel) (any, error) {
	key := epochKey{name: m.Name(), seq: m.Seq()}
	if bs := c.sets[key]; bs != nil {
		return bs, nil
	}
	gen := c.gens.get(key, m)
	if gen.err != nil {
		return nil, gen.err
	}
	bs := gen.newSet(c)
	c.sets[key] = bs
	retire(c.sets, key)
	return bs, nil
}

// worker serves pool jobs over its body cache: a request whose generation
// the worker has not met (a publish or reload happened) takes the shared
// lock once — to compile it, or to find it compiled by another worker — and
// builds the set's output storage; every later one finds its bodies without
// a lock. A selector rotation, which keeps the bodies, costs nothing.
func (s *Server) worker(stop <-chan struct{}) {
	bodies := s.newBodyCache()
	for {
		select {
		case j := <-s.jobs:
			s.serve(j, bodies)
		case <-stop:
			return
		}
	}
}

// serve answers j with one compute over the caller's body cache, feeding the
// optional telemetry and tracing hooks, each one nil check when disabled.
// The reply goes out only after those recorded: a replied job belongs to its
// connection writer, which recycles it.
func (s *Server) serve(j *job, bodies *bodyCache) {
	tr, sm := s.opts.tracer, s.opts.metrics
	var start time.Time
	if sm != nil || tr != nil {
		start = time.Now()
	}
	if tr != nil {
		tr.Span(&j.tr, trace.StageQueue, j.handedAt, start.Sub(j.handedAt))
	}
	s.compute(j, bodies)
	if sm != nil || tr != nil {
		d := time.Since(start)
		if sm != nil {
			sm.record(j, d)
		}
		tr.Span(&j.tr, trace.StageForward, start, d)
		j.handedAt = start.Add(d)
	}
	j.reply <- &j.resp
}

// compute answers j in j.resp. The budget verdict comes first: a refused job
// must not resolve, be observed, or compute — it serves (and therefore leaks)
// nothing, which is also why its charge was rolled back. A live job resolves
// its header and runs one pass over this worker's body set for the epoch. A
// panic anywhere (validation cannot anticipate every shape the hosted bodies
// reject) answers the job instead of killing the server, and every answer
// given after the resolve names the epoch.
func (s *Server) compute(j *job, bodies *bodyCache) {
	var epoch Response
	defer func() {
		if r := recover(); r != nil && j.resp.Err == "" && !j.pay.answered() {
			epoch.Err = fmt.Sprintf("comm: request failed: %v", r)
			j.resp = epoch
		}
	}()
	if !s.chargeJob(j) {
		return
	}
	m, err := s.provider.Resolve(j.req.Model, j.req.Version)
	if err != nil {
		j.resp = Response{Err: err.Error()}
		return
	}
	epoch.Model, epoch.Version = m.Name(), m.Version()
	if o := s.opts.observer; o != nil { // kept only for bench/ until ROADMAP item 2
		j.pay.observe(o, epoch.Model, epoch.Version)
	}
	run, err := bodies.bodiesFor(m)
	if err != nil {
		epoch.Err = err.Error()
		j.resp = epoch
		return
	}
	j.pay.pass(s, j, run, epoch)
}
