package comm

// Continuous batching across connections: the dispatcher owns a bounded
// intake of decoded requests, coalesces compatible ones — same model epoch,
// same feature geometry — arriving on *different* connections into one
// stacked forward pass, and sheds load with an honest 429-style response
// (ErrOverloaded) when the intake is full instead of queueing without
// bound. This is the server-side half of §III-D's batch amortization: a
// client no longer has to pack B inputs into one request to buy the
// batched rate; B clients each sending one input buy it together.
//
// Design constraints, in order:
//
//  1. Bounded memory. Admission control runs at submit time under one
//     mutex; depth can never exceed maxQueue, and the shed path reuses the
//     job's own response storage (no allocation under overload — the one
//     regime where allocating is most dangerous).
//  2. Fairness. Requests queue per connection and batches are collected
//     round-robin, one job per connection per pass, so a pipelining
//     firehose cannot monopolize a batch. When the intake is full, the
//     victim is the newest request of the *longest* queue — the client
//     responsible for the overload — and only if the submitter's own queue
//     is at least as long is the newcomer itself shed.
//  3. The zero-allocation steady state of the PR 5 request loop. Batches
//     recycle through a free list; the stacked input lives in the computing
//     worker's body set, per-job outputs in each job's arena (reset by its
//     connection writer, exactly as in the un-coalesced path).
//
// The batch window (WithBatchWindow) trades latency for occupancy: the
// batcher sleeps the window after seeing a batch's first job, letting
// co-arrivals accumulate. Window zero still coalesces whatever is already
// queued — greedy batching plus admission control, no added latency.

import (
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/trace"
)

// DefaultMaxQueue bounds the dispatcher intake when WithBatchWindow enables
// continuous batching without an explicit WithMaxQueue.
const DefaultMaxQueue = 256

// maxBatchWindow caps WithBatchWindow: the window must stay well under the
// shutdown drain timeout (queued jobs ride out at most one window during a
// graceful drain) and a longer window is a latency bug, not a throughput
// feature.
const maxBatchWindow = time.Second

// overloadedMsg is the shed response's error text — a constant so the
// admission-control path performs no allocation. The Code field carries the
// machine-readable verdict.
const overloadedMsg = "server overloaded: intake queue full, request shed; retry with backoff"

// coalesceKey identifies the requests that may share one stacked forward
// pass: same routing header (hence same resolved epoch) and same per-row
// feature geometry. Row counts may differ — stacking concatenates along the
// batch axis exactly like a client-batched request.
type coalesceKey struct {
	model   string
	version int
	c, h, w int
}

// jobKey classifies a decoded request for coalescing. Only single-tensor
// feature requests of plausible rank participate; client-batched requests
// (Inputs) and malformed shapes dispatch as batches of one, which the serve
// pass validates like any other.
func jobKey(j *job) (coalesceKey, bool) {
	shape := j.pay.featureShape()
	if len(shape) != 4 {
		return coalesceKey{}, false
	}
	return coalesceKey{model: j.req.Model, version: j.req.Version, c: shape[1], h: shape[2], w: shape[3]}, true
}

// connQueue is one connection's FIFO of admitted jobs. head indexes the
// next job out; the backing slice compacts when drained so steady state
// reuses one allocation per connection.
type connQueue struct {
	jobs []*job
	head int
}

func (q *connQueue) depth() int { return len(q.jobs) - q.head }

func (q *connQueue) push(j *job) { q.jobs = append(q.jobs, j) }

func (q *connQueue) peek() *job { return q.jobs[q.head] }

func (q *connQueue) pop() *job {
	j := q.jobs[q.head]
	q.jobs[q.head] = nil
	q.head++
	if q.head == len(q.jobs) {
		q.jobs = q.jobs[:0]
		q.head = 0
	}
	return j
}

// dropNewest sheds from the tail — the requests that arrived after the
// queue was already deep — preserving FIFO order for what remains.
func (q *connQueue) dropNewest() *job {
	j := q.jobs[len(q.jobs)-1]
	q.jobs[len(q.jobs)-1] = nil
	q.jobs = q.jobs[:len(q.jobs)-1]
	if q.head == len(q.jobs) {
		q.jobs = q.jobs[:0]
		q.head = 0
	}
	return j
}

// dispatchBatch is one coalesced unit of work: the jobs one serve pass
// answers. The stacked input and the forward outputs live in the body set
// of the worker that computes the pass, the per-job copies in each job's arena.
// Batches recycle through the dispatcher's free list.
type dispatchBatch struct {
	jobs []*job
}

func (b *dispatchBatch) reset() {
	for i := range b.jobs {
		b.jobs[i] = nil
	}
	b.jobs = b.jobs[:0]
}

// dispatcher is the continuous-batching intake: per-connection bounded
// queues, a single batcher goroutine collecting round-robin batches, and
// admission control that sheds with ErrOverloaded at the bound.
type dispatcher struct {
	window      time.Duration
	maxQueue    int
	maxCoalesce int
	metrics     *ServerMetrics // nil: stats only, no telemetry
	tracer      *trace.Tracer  // nil: no per-stage attribution

	mu     sync.Mutex
	queues []*connQueue
	rr     int // round-robin start for the next batch
	depth  int
	peak   int

	// wake holds at most one token: submit signals, the batcher drains.
	wake chan struct{}
	free chan *dispatchBatch

	sheds        atomic.Uint64
	batches      atomic.Uint64
	coalesced    atomic.Uint64
	maxCoalesced atomic.Uint64
}

func newDispatcher(window time.Duration, maxQueue, maxCoalesce int, m *ServerMetrics, tr *trace.Tracer) *dispatcher {
	return &dispatcher{
		window:      window,
		maxQueue:    maxQueue,
		maxCoalesce: maxCoalesce,
		metrics:     m,
		tracer:      tr,
		wake:        make(chan struct{}, 1),
		free:        make(chan *dispatchBatch, 16),
	}
}

// register adds a connection's queue to the round-robin ring.
func (d *dispatcher) register() *connQueue {
	q := &connQueue{}
	d.mu.Lock()
	d.queues = append(d.queues, q)
	d.mu.Unlock()
	return q
}

// unregister removes a connection's queue. The handler calls it only after
// its writer drained every reply, so the queue is empty by construction.
func (d *dispatcher) unregister(q *connQueue) {
	d.mu.Lock()
	for i, cand := range d.queues {
		if cand == q {
			last := len(d.queues) - 1
			d.queues[i] = d.queues[last]
			d.queues[last] = nil
			d.queues = d.queues[:last]
			break
		}
	}
	if len(d.queues) > 0 {
		d.rr %= len(d.queues)
	} else {
		d.rr = 0
	}
	d.mu.Unlock()
}

// submit admits j into q or sheds under overload, replying on the job's own
// channel either way — the caller never blocks and never handles the job
// again. The shed victim is chosen for fairness: the newest job of the
// longest queue when that queue is strictly deeper than the submitter's,
// otherwise the newcomer itself (which covers "the submitter IS the
// firehose").
func (d *dispatcher) submit(q *connQueue, j *job) {
	// Fault site: a forced shed exercises the honest-429 path — the job is
	// answered with CodeOverloaded exactly as under real admission pressure.
	if fpDispatch.Inject() != nil {
		d.shed(j)
		return
	}
	var victim *job
	d.mu.Lock()
	if d.depth >= d.maxQueue {
		longest := q
		for _, cand := range d.queues {
			if cand.depth() > longest.depth() {
				longest = cand
			}
		}
		if longest != q && longest.depth() > q.depth() {
			victim = longest.dropNewest()
			d.depth--
		} else {
			d.mu.Unlock()
			d.shed(j)
			return
		}
	}
	d.depth++
	if d.depth > d.peak {
		d.peak = d.depth
	}
	q.push(j)
	d.mu.Unlock()
	if victim != nil {
		d.shed(victim)
	}
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// shed answers a job with the honest 429: constant error text, the
// CodeOverloaded verdict, no allocation. The reply channel is buffered and
// the job is not computing, so the send cannot block.
func (d *dispatcher) shed(j *job) {
	d.sheds.Add(1)
	if m := d.metrics; m != nil {
		m.Requests.Inc()
		m.Errors.Inc()
		m.Shed.Inc()
	}
	// The terminal shed span: its duration is the time the request sat
	// queued before admission control picked it as the victim. MarkShed
	// makes tail-sampling retention unconditional, so every shed is
	// explainable after the fact. Like the response itself, the span costs
	// no allocation — overload is the regime where allocating is most
	// dangerous.
	if tr := d.tracer; tr != nil {
		j.tr.MarkShed()
		now := time.Now()
		var wait time.Duration
		if !j.queuedAt.IsZero() {
			wait = now.Sub(j.queuedAt)
			j.queuedAt = time.Time{}
		}
		tr.Span(&j.tr, trace.StageShed, now.Add(-wait), wait)
	}
	j.resp = Response{Err: overloadedMsg, Code: CodeOverloaded}
	j.reply <- &j.resp
}

// queued reports the current intake depth.
func (d *dispatcher) queued() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.depth
}

// run is the batcher: it waits for intake, lets the window elapse so
// co-arrivals can join, collects one round-robin batch, and hands it to the
// worker pool. Serve stops it only after every handler drained, so the
// intake is empty when stop fires and no job can be stranded.
func (d *dispatcher) run(batches chan<- *dispatchBatch, stop <-chan struct{}) {
	for {
		if d.queued() == 0 {
			select {
			case <-d.wake:
			case <-stop:
				return
			}
			continue // re-check: the token may predate a batch that already drained the queue
		}
		// The window opens when the batcher first sees work and closes
		// unconditionally: a fixed, predictable latency cost that the
		// queueing model (latency.EstimateContinuousBatching) prices.
		var windowOpen time.Time
		if d.tracer != nil {
			windowOpen = time.Now()
		}
		if d.window > 0 && d.queued() < d.maxCoalesce {
			time.Sleep(d.window)
		}
		b := d.takeBatch(windowOpen)
		if b == nil {
			continue
		}
		d.batches.Add(1)
		n := uint64(len(b.jobs))
		d.coalesced.Add(n)
		for {
			cur := d.maxCoalesced.Load()
			if n <= cur || d.maxCoalesced.CompareAndSwap(cur, n) {
				break
			}
		}
		batches <- b
	}
}

// takeBatch collects the next batch: the head job of the first non-empty
// queue at the round-robin cursor seeds it, then passes over all queues —
// one job per queue per pass, fairness before fullness — take every queued
// job matching the seed's coalesce key, up to maxCoalesce. Non-coalescible
// seeds (client-batched requests, odd shapes) dispatch alone. windowOpen,
// when nonzero, is the instant the batcher first saw work this round — the
// boundary that splits each popped job's wait into intake-queue time
// (before the window opened) and batch-window time (the deliberate
// coalescing delay).
func (d *dispatcher) takeBatch(windowOpen time.Time) *dispatchBatch {
	b := d.getBatch()
	d.mu.Lock()
	n := len(d.queues)
	if n == 0 || d.depth == 0 {
		d.mu.Unlock()
		d.putBatch(b)
		return nil
	}
	seedAt := -1
	for i := 0; i < n; i++ {
		q := d.queues[(d.rr+i)%n]
		if q.depth() > 0 {
			seedAt = (d.rr + i) % n
			b.jobs = append(b.jobs, q.pop())
			d.depth--
			break
		}
	}
	if seedAt < 0 {
		d.mu.Unlock()
		d.putBatch(b)
		return nil
	}
	d.rr = (seedAt + 1) % n
	key, ok := jobKey(b.jobs[0])
	if ok {
		for progress := true; progress && len(b.jobs) < d.maxCoalesce; {
			progress = false
			for i := 0; i < n && len(b.jobs) < d.maxCoalesce; i++ {
				q := d.queues[(d.rr+i)%n]
				if q.depth() == 0 {
					continue
				}
				if k, ok := jobKey(q.peek()); !ok || k != key {
					continue
				}
				b.jobs = append(b.jobs, q.pop())
				d.depth--
				progress = true
			}
		}
	}
	d.mu.Unlock()
	// Attribute each popped job's wait outside the lock (the jobs now belong
	// to this batch; nothing races their Active until the reply). The time
	// since the job queued splits at windowOpen: before it, intake-queue
	// wait; after it, the deliberate batch-window delay. queuedAt is zeroed
	// so serve() does not double-count the queue leg for singleton batches.
	if tr := d.tracer; tr != nil {
		now := time.Now()
		for _, j := range b.jobs {
			if j.queuedAt.IsZero() {
				continue
			}
			total := now.Sub(j.queuedAt)
			if total < 0 {
				total = 0
			}
			var windowShare time.Duration
			if !windowOpen.IsZero() && windowOpen.After(j.queuedAt) {
				windowShare = now.Sub(windowOpen)
			} else if !windowOpen.IsZero() {
				windowShare = total
			}
			if windowShare > total {
				windowShare = total
			}
			if windowShare < 0 {
				windowShare = 0
			}
			queueShare := total - windowShare
			tr.Span(&j.tr, trace.StageQueue, j.queuedAt, queueShare)
			if windowShare > 0 {
				tr.Span(&j.tr, trace.StageBatchWait, j.queuedAt.Add(queueShare), windowShare)
			}
			j.queuedAt = time.Time{}
		}
	}
	return b
}

func (d *dispatcher) getBatch() *dispatchBatch {
	select {
	case b := <-d.free:
		return b
	default:
		return &dispatchBatch{}
	}
}

func (d *dispatcher) putBatch(b *dispatchBatch) {
	b.reset()
	select {
	case d.free <- b:
	default: // free list full; let it be collected
	}
}

// DispatcherStats is a point-in-time snapshot of the continuous-batching
// intake — the numbers behind the ensembler_dispatch_* telemetry series and
// what the race suite asserts cross-connection coalescing against.
type DispatcherStats struct {
	// Enabled reports whether the server runs a dispatcher at all.
	Enabled bool
	// Depth is the current intake depth; PeakDepth its high-water mark.
	// PeakDepth ≤ MaxQueue is the bounded-queue invariant.
	Depth, PeakDepth, MaxQueue int
	// Window is the configured batch window.
	Window time.Duration
	// Sheds counts requests answered with ErrOverloaded by admission
	// control. Batches counts dispatched batches (singletons included);
	// CoalescedJobs the jobs carried by multi-job batches, so
	// CoalescedJobs/Batches understates and MaxCoalesced witnesses the
	// occupancy the histogram records in full.
	Sheds, Batches, CoalescedJobs uint64
	// MaxCoalesced is the largest batch dispatched so far.
	MaxCoalesced int
}

// DispatcherStats reports the dispatcher's counters; the zero value (with
// Enabled false) when the server was built without continuous batching.
func (s *Server) DispatcherStats() DispatcherStats {
	d := s.dispatcher
	if d == nil {
		return DispatcherStats{}
	}
	d.mu.Lock()
	depth, peak := d.depth, d.peak
	d.mu.Unlock()
	return DispatcherStats{
		Enabled:       true,
		Depth:         depth,
		PeakDepth:     peak,
		MaxQueue:      d.maxQueue,
		Window:        d.window,
		Sheds:         d.sheds.Load(),
		Batches:       d.batches.Load(),
		CoalescedJobs: d.coalesced.Load(),
		MaxCoalesced:  int(d.maxCoalesced.Load()),
	}
}
