// Package trace is the serving stack's request-tracing subsystem: per-stage
// latency attribution for every request and full span timelines for an
// interesting subset, in the same hot-path discipline as the telemetry
// registry and the audit sampler — zero steady-state allocations, no locks a
// request can block on.
//
// The moving parts:
//
//   - An Active is one in-flight request's span storage: a fixed array of
//     slots embedded in (and recycled with) the serving job, so recording a
//     span is an array write plus a histogram observe. Every request records
//     when a Tracer is attached; "sampling" decides retention, not recording.
//   - The Tracer owns a fixed ring of completed-trace Records. Finishing a
//     request copies its spans into a ring slot only when the tail-based
//     retention policy says so: errors always, the slowest-N seen recently
//     always, and a configurable probabilistic fraction of the rest.
//     Tail-based means the decision runs at completion, when the outcome
//     and total latency are known — a head sampler cannot promise "every
//     error is traceable".
//   - Every span additionally feeds a per-stage duration histogram
//     (`ensembler_stage_seconds{stage=...}` when a telemetry registry is
//     attached), so /metrics carries latency attribution even for the
//     requests whose spans were not retained.
//
// Stitching: a trace Context (u64 ID + the retention decision) propagates on
// the wire (see internal/comm's traced frames), so the client leg, the
// server leg, and every shard leg of one logical request share one trace
// ID. Each leg finishes independently and lands as its own Record; a
// consumer (the admin plane's /traces/{id}) stitches legs by ID. The Sampled
// flag exists for cross-leg consistency: the root leg decides the
// probabilistic coin once and forces retention downstream, so a retained
// trace is never missing half its legs.
//
// Concurrency: one Active belongs to one goroutine at a time (the job
// hand-off points — reader → worker → writer — are all channel- or
// mutex-sequenced, which is the same ownership discipline the
// job's arena relies on). The ring write path never blocks: slots are
// claimed with an atomic cursor and guarded by per-slot try-locks, so a
// writer racing a slow scrape drops that one record instead of waiting.
package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/telemetry"
)

// Stage identifies one instrumented segment of a request's lifetime.
type Stage uint8

const (
	// StageDecode is frame parse time on the server (bytes in hand to
	// decoded request; the blocking read that precedes it is idle time, not
	// work, and is deliberately unattributed).
	StageDecode Stage = iota
	// StageQueue is intake wait: hand-off to the worker pool until compute
	// begins.
	StageQueue
	// StageForward is resolve + body-set lookup + the body passes.
	StageForward
	// StageEncode is the hand-off back to the connection writer, then
	// response encode + write on it.
	StageEncode
	// StageClient is client-side compute: head+noise before the round trip
	// (Arg 0) and selection+tail after it (Arg 1).
	StageClient
	// StageScatter is one shard's exchange round trip as the scatter-gather
	// client measured it, retries included; Arg is the shard index.
	StageScatter
	// StageRetry marks one failed attempt that earned a retry against a
	// shard (Arg = shard index).
	StageRetry

	numStages
)

var stageNames = [numStages]string{
	"decode", "queue", "forward", "encode",
	"client", "scatter", "retry",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// MaxSpans bounds one leg's span storage. A monolith server leg uses 4; a
// scatter-gather client leg uses 2 + K + one marker per retry. Overflow
// increments Record.Dropped instead of allocating.
const MaxSpans = 24

// Span is one recorded stage interval. Start is the offset from the leg's
// begin time (negative when the stage began before Begin, e.g. decode on the
// gob path); Dur is its length. Both are nanoseconds. Arg carries
// stage-specific detail (shard index, client phase).
type Span struct {
	Stage Stage
	Arg   int32
	Start int64
	Dur   int64
}

// Context is the trace identity that crosses connection boundaries: the
// trace ID shared by every leg of one logical request, and the root leg's
// retention decision (Sampled forces downstream legs to retain, so a kept
// trace has all its legs).
type Context struct {
	ID      uint64
	Sampled bool
}

// Active is one in-flight leg's span storage: fixed capacity, embedded in
// the serving job (or pooled by the shard client) and recycled with it, so
// the sampled path allocates nothing. One goroutine owns an Active at a
// time; the owners hand it off through the same synchronized points the job
// itself crosses.
type Active struct {
	id      uint64
	forced  bool
	live    bool
	start   time.Time
	dropped uint32
	n       int
	spans   [MaxSpans]Span
}

// Reset reclaims the Active for the next request. Only the bookkeeping head
// is cleared; span slots past n were never valid.
func (a *Active) Reset() {
	a.id, a.forced, a.live = 0, false, false
	a.start = time.Time{}
	a.dropped, a.n = 0, 0
}

// ID returns the leg's trace ID (zero before Begin).
func (a *Active) ID() uint64 { return a.id }

func (a *Active) addSpan(s Stage, arg int32, off, dur time.Duration) {
	if !a.live {
		return
	}
	if a.n >= MaxSpans {
		a.dropped++
		return
	}
	a.spans[a.n] = Span{Stage: s, Arg: arg, Start: int64(off), Dur: int64(dur)}
	a.n++
}

// Record is one completed, retained leg as stored in the ring.
type Record struct {
	ID      uint64
	Start   int64 // wall clock, nanoseconds since the Unix epoch
	Dur     int64 // nanoseconds, Begin to Finish
	Err     bool
	Forced  bool // retention was decided upstream (or by the root coin)
	Dropped uint32
	N       int
	Spans   [MaxSpans]Span
}

// StageDur sums the record's spans for one stage.
func (r *Record) StageDur(s Stage) time.Duration {
	var d time.Duration
	for i := 0; i < r.N; i++ {
		if r.Spans[i].Stage == s {
			d += time.Duration(r.Spans[i].Dur)
		}
	}
	return d
}

// slot is one ring entry. The try-lock keeps writers non-blocking: a writer
// racing a scrape (or a wrapped writer) drops its record rather than wait.
type slot struct {
	mu   sync.Mutex
	data Record
}

// Config configures a Tracer. Zero values take the documented defaults.
type Config struct {
	// SampleRate is the probabilistic tail-retention rate for requests that
	// are neither errors nor slowest-N (default 0.01; negative
	// disables the coin entirely).
	SampleRate float64
	// SlowestN is how many slowest-seen requests the slow tracker retains
	// before a new request must beat the Nth to be kept as "slow"
	// (default 8; the tracker decays every 4096 finishes so the threshold
	// follows the workload instead of ratcheting forever).
	SlowestN int
	// Capacity is the completed-trace ring size, rounded up to a power of
	// two (default 256). One Record is ~700 bytes.
	Capacity int
	// Registry, when set, receives the ensembler_stage_seconds{stage=...}
	// histogram family. Stage histograms exist (and StageStats works)
	// either way.
	Registry *telemetry.Registry
}

// DefaultSampleRate is the probabilistic tail-retention rate when
// Config.SampleRate is zero.
const DefaultSampleRate = 0.01

// slowDecayEvery is how many finished legs pass between slow-tracker decays.
const slowDecayEvery = 4096

// Tracer owns the stage histograms, the tail-retention policy, and the ring
// of retained traces. All methods are safe for concurrent use and a nil
// *Tracer is a valid no-op receiver, so call sites need no nil checks of
// their own.
type Tracer struct {
	rate  float64
	slowN int

	mask  uint64
	slots []slot
	widx  atomic.Uint64

	rng   atomic.Uint64
	idGen atomic.Uint64

	finished atomic.Uint64
	retained atomic.Uint64
	dropped  atomic.Uint64 // ring writes abandoned to a slot contended by a scrape

	slowMu  sync.Mutex
	slowTop []int64
	slowMin atomic.Int64

	hist [numStages]*telemetry.Histogram
}

// New builds a Tracer. See Config for the policy knobs.
func New(cfg Config) *Tracer {
	if cfg.SampleRate == 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SlowestN == 0 {
		cfg.SlowestN = 8
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	capacity := 1
	for capacity < cfg.Capacity {
		capacity <<= 1
	}
	t := &Tracer{
		rate:    cfg.SampleRate,
		slowN:   cfg.SlowestN,
		mask:    uint64(capacity - 1),
		slots:   make([]slot, capacity),
		slowTop: make([]int64, 0, max(cfg.SlowestN, 0)),
	}
	// An empty slow tracker accepts everything: the sentinel keeps the fast
	// path off the slice entirely (len(slowTop) is only read under slowMu).
	t.slowMin.Store(math.MinInt64)
	seed := uint64(time.Now().UnixNano())
	t.rng.Store(seed)
	t.idGen.Store(mix64(seed ^ 0xA5A5A5A5A5A5A5A5))
	for s := Stage(0); s < numStages; s++ {
		if cfg.Registry != nil {
			t.hist[s] = cfg.Registry.Histogram("ensembler_stage_seconds",
				"Per-stage request latency attribution (see internal/trace).",
				telemetry.DefaultLatencyBuckets, telemetry.Labels{"stage": s.String()})
		} else {
			t.hist[s] = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets)
		}
	}
	return t
}

// mix64 is the splitmix64 finalizer: a bijection, so distinct counter values
// give distinct well-scattered outputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewID returns a fresh nonzero trace ID.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	for {
		if id := mix64(t.idGen.Add(1)); id != 0 {
			return id
		}
	}
}

// coin is the probabilistic tail-retention decision: lock-free, allocation-
// free, racy only in the harmless sense that concurrent callers share one
// xorshift stream.
func (t *Tracer) coin() bool {
	if t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	x := mix64(t.rng.Add(0x9E3779B97F4A7C15))
	return float64(x>>11)/(1<<53) < t.rate
}

// Root begins a root leg: a fresh trace ID with the probabilistic retention
// coin flipped once, up front, so every downstream leg of the request
// retains (or not) together. Returns the Context to propagate on the wire.
func (t *Tracer) Root(a *Active) Context {
	if t == nil {
		return Context{}
	}
	ctx := Context{ID: t.NewID(), Sampled: t.coin()}
	t.BeginAt(a, ctx, time.Now())
	return ctx
}

// Begin starts a leg now. A zero ctx.ID mints a fresh trace ID (a request
// that arrived without upstream trace context).
func (t *Tracer) Begin(a *Active, ctx Context) { t.BeginAt(a, ctx, time.Now()) }

// BeginAt starts a leg with an explicit begin time (zero means now) — the
// server uses the moment the request's bytes were in hand, so decode time
// counts against the leg total.
func (t *Tracer) BeginAt(a *Active, ctx Context, start time.Time) {
	if t == nil {
		return
	}
	a.Reset()
	id := ctx.ID
	if id == 0 {
		id = t.NewID()
	}
	if start.IsZero() {
		start = time.Now()
	}
	a.id = id
	a.forced = ctx.Sampled
	a.start = start
	a.live = true
}

// Span records one stage interval: the stage histogram always observes it,
// and when a is a live leg the span lands in its slot storage too. No
// allocation either way.
func (t *Tracer) Span(a *Active, s Stage, start time.Time, dur time.Duration) {
	t.SpanArg(a, s, 0, start, dur)
}

// SpanArg is Span with the stage-specific Arg (shard index, client phase).
func (t *Tracer) SpanArg(a *Active, s Stage, arg int32, start time.Time, dur time.Duration) {
	if t == nil || s >= numStages {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.hist[s].Observe(dur.Seconds())
	if a != nil && a.live {
		a.addSpan(s, arg, start.Sub(a.start), dur)
	}
}

// Finish completes a leg and runs the tail-retention policy: errors and
// upstream-forced legs always retain; then the slowest-N tracker; then
// the probabilistic coin. Returns whether the leg was copied into the ring.
// The Active is dead afterwards (reusable via Begin).
func (t *Tracer) Finish(a *Active, errFlag bool) bool {
	if t == nil || !a.live {
		return false
	}
	a.live = false
	total := time.Since(a.start)
	n := t.finished.Add(1)
	if n%slowDecayEvery == 0 {
		t.decaySlow()
	}
	retain := errFlag || a.forced
	if !retain && t.slowRetain(int64(total)) {
		retain = true
	}
	if !retain && t.coin() {
		retain = true
	}
	if !retain {
		return false
	}
	t.store(a, total, errFlag)
	return true
}

// slowRetain reports whether dur belongs among the slowest-N seen recently,
// inserting it if so. The fast path is one atomic load; the mutex is taken
// only by requests that actually beat the current threshold.
func (t *Tracer) slowRetain(dur int64) bool {
	if t.slowN <= 0 {
		return false
	}
	if dur < t.slowMin.Load() {
		// slowMin starts at MinInt64 (empty tracker accepts everything), so
		// this one atomic load is the whole fast path — the slice itself is
		// only ever touched under slowMu.
		return false
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	if len(t.slowTop) < t.slowN {
		t.slowTop = append(t.slowTop, dur)
	} else {
		mi := 0
		for i, v := range t.slowTop {
			if v < t.slowTop[mi] {
				mi = i
			}
		}
		if dur < t.slowTop[mi] {
			return false
		}
		t.slowTop[mi] = dur
	}
	min := t.slowTop[0]
	for _, v := range t.slowTop {
		if v < min {
			min = v
		}
	}
	t.slowMin.Store(min)
	return true
}

// decaySlow halves the slow tracker's memory so the slowest-N threshold
// follows the workload down as well as up — without it one early GC pause
// would own the tracker forever.
func (t *Tracer) decaySlow() {
	t.slowMu.Lock()
	for i := range t.slowTop {
		t.slowTop[i] /= 2
	}
	if len(t.slowTop) > 0 {
		min := t.slowTop[0]
		for _, v := range t.slowTop {
			if v < min {
				min = v
			}
		}
		t.slowMin.Store(min)
	}
	t.slowMu.Unlock()
}

// store copies the finished leg into the next ring slot. Writers never
// block: the slot try-lock fails only against a concurrent scrape (or a
// writer a full ring-lap ahead), and then the record is dropped and counted.
func (t *Tracer) store(a *Active, total time.Duration, failed bool) {
	s := &t.slots[(t.widx.Add(1)-1)&t.mask]
	if !s.mu.TryLock() {
		t.dropped.Add(1)
		return
	}
	s.data.ID = a.id
	s.data.Start = a.start.UnixNano()
	s.data.Dur = int64(total)
	s.data.Err = failed
	s.data.Forced = a.forced
	s.data.Dropped = a.dropped
	s.data.N = a.n
	copy(s.data.Spans[:a.n], a.spans[:a.n])
	s.mu.Unlock()
	t.retained.Add(1)
}

// Counts reports how many legs finished and how many were retained.
func (t *Tracer) Counts() (finished, retained uint64) {
	if t == nil {
		return 0, 0
	}
	return t.finished.Load(), t.retained.Load()
}

// Snapshot copies every retained record out of the ring, oldest first.
// Scrape-path: it locks slots one at a time and allocates freely.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.data.ID != 0 {
			out = append(out, s.data)
		}
		s.mu.Unlock()
	}
	sortRecords(out)
	return out
}

// TraceByID returns every retained leg of one trace, oldest first — the
// stitched view of a logical request that crossed connections and shards.
func (t *Tracer) TraceByID(id uint64) []Record {
	if t == nil || id == 0 {
		return nil
	}
	var out []Record
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.data.ID == id {
			out = append(out, s.data)
		}
		s.mu.Unlock()
	}
	sortRecords(out)
	return out
}

// sortRecords orders by start time (insertion sort: snapshots are small and
// nearly sorted already).
func sortRecords(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Start < recs[j-1].Start; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// StageStat is one stage's aggregate latency attribution, computed from the
// same histograms /metrics exports.
type StageStat struct {
	Stage string
	Count uint64
	Mean  time.Duration
	P99   time.Duration
}

// StageStats summarizes every stage that observed at least one span —
// what the admin plane's /traces endpoint reports per stage.
func (t *Tracer) StageStats() []StageStat {
	if t == nil {
		return nil
	}
	out := make([]StageStat, 0, numStages)
	for s := Stage(0); s < numStages; s++ {
		h := t.hist[s]
		c := h.Count()
		if c == 0 {
			continue
		}
		out = append(out, StageStat{
			Stage: s.String(),
			Count: c,
			Mean:  time.Duration(h.Sum() / float64(c) * float64(time.Second)),
			P99:   time.Duration(h.Quantile(0.99) * float64(time.Second)),
		})
	}
	return out
}

// StageHistogram exposes one stage's histogram (for tests and the bench
// harness's JSON report).
func (t *Tracer) StageHistogram(s Stage) *telemetry.Histogram {
	if t == nil || s >= numStages {
		return nil
	}
	return t.hist[s]
}
