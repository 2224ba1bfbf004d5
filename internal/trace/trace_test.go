package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// newTest builds a tracer with a deterministic-enough config for assertions:
// coin disabled unless rate is given, slow tracker disabled when slowN is 0
// (the Config zero value would mean "default 8").
func newTest(rate float64, slowN, capacity int) *Tracer {
	if rate == 0 {
		rate = -1
	}
	if slowN == 0 {
		slowN = -1
	}
	return New(Config{SampleRate: rate, SlowestN: slowN, Capacity: capacity})
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	var a Active
	ctx := tr.Root(&a)
	if ctx.ID != 0 {
		t.Fatalf("nil tracer minted ID %d", ctx.ID)
	}
	tr.Begin(&a, Context{})
	tr.Span(&a, StageForward, time.Now(), time.Millisecond)
	if tr.Finish(&a, false) {
		t.Fatal("nil tracer retained a trace")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if got := tr.TraceByID(1); got != nil {
		t.Fatalf("nil tracer TraceByID = %v", got)
	}
	if f, r := tr.Counts(); f != 0 || r != 0 {
		t.Fatalf("nil tracer counts = %d, %d", f, r)
	}
	if s := tr.StageStats(); s != nil {
		t.Fatalf("nil tracer stage stats = %v", s)
	}
	if tr.StageHistogram(StageForward) != nil {
		t.Fatal("nil tracer returned a histogram")
	}
	if tr.NewID() != 0 {
		t.Fatal("nil tracer minted an ID")
	}
}

func TestErrorAlwaysRetains(t *testing.T) {
	tr := newTest(-1, 0, 8) // no coin, no slow tracker
	var a Active

	tr.Begin(&a, Context{})
	if tr.Finish(&a, false) {
		t.Fatal("healthy request retained with sampling fully off")
	}

	tr.Begin(&a, Context{})
	if !tr.Finish(&a, true) {
		t.Fatal("errored request (errFlag) not retained")
	}

	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("retained %d records, want 1", len(recs))
	}
	for _, r := range recs {
		if !r.Err {
			t.Fatal("retained errored record without its error flag")
		}
	}
}

func TestForcedContextRetains(t *testing.T) {
	tr := newTest(-1, 0, 8)
	var a Active
	tr.Begin(&a, Context{ID: 42, Sampled: true})
	if a.ID() != 42 {
		t.Fatalf("leg ID = %d, want upstream 42", a.ID())
	}
	if !tr.Finish(&a, false) {
		t.Fatal("upstream-sampled leg not retained")
	}
	legs := tr.TraceByID(42)
	if len(legs) != 1 || !legs[0].Forced {
		t.Fatalf("TraceByID(42) = %+v, want one forced record", legs)
	}
}

func TestCoinRateOneRetainsEverything(t *testing.T) {
	tr := newTest(1, 0, 64)
	var a Active
	for i := 0; i < 10; i++ {
		tr.Begin(&a, Context{})
		if !tr.Finish(&a, false) {
			t.Fatalf("request %d not retained at rate 1", i)
		}
	}
	if f, r := tr.Counts(); f != 10 || r != 10 {
		t.Fatalf("counts = %d finished, %d retained; want 10, 10", f, r)
	}
}

func TestSlowestRetention(t *testing.T) {
	tr := newTest(-1, 2, 64)
	var a Active
	// The first slowN legs seed the tracker and retain; after that only legs
	// at least as slow as the tracked minimum do. Seed durations increase so
	// measurement overhead can't reorder them.
	for i := 0; i < 2; i++ {
		tr.BeginAt(&a, Context{}, time.Now().Add(-time.Duration(i+1)*time.Second))
		if !tr.Finish(&a, false) {
			t.Fatalf("seed leg %d not retained by slow tracker", i)
		}
	}
	// A fast leg (microseconds) must now lose to the 1-second entries.
	tr.Begin(&a, Context{})
	if tr.Finish(&a, false) {
		t.Fatal("fast leg retained despite slower top-N")
	}
	// A slower-than-tracked leg must win.
	tr.BeginAt(&a, Context{}, time.Now().Add(-3*time.Second))
	if !tr.Finish(&a, false) {
		t.Fatal("slowest-yet leg not retained")
	}
}

func TestSlowTrackerDecays(t *testing.T) {
	tr := newTest(-1, 1, 64)
	var a Active
	tr.BeginAt(&a, Context{}, time.Now().Add(-time.Hour))
	tr.Finish(&a, false) // the tracker now remembers one huge outlier
	before := tr.slowMin.Load()
	tr.decaySlow()
	after := tr.slowMin.Load()
	if after >= before {
		t.Fatalf("decay did not lower the threshold: %d -> %d", before, after)
	}
}

func TestSpanRecordingAndStageDur(t *testing.T) {
	tr := newTest(1, 0, 8)
	var a Active
	start := time.Now()
	tr.BeginAt(&a, Context{}, start)
	tr.Span(&a, StageDecode, start, time.Millisecond)
	tr.SpanArg(&a, StageScatter, 3, start.Add(time.Millisecond), 2*time.Millisecond)
	tr.SpanArg(&a, StageScatter, 1, start.Add(time.Millisecond), time.Millisecond)
	tr.Span(&a, StageForward, start.Add(-time.Millisecond), -5*time.Millisecond) // negative dur clamps to 0
	if !tr.Finish(&a, false) {
		t.Fatal("not retained at rate 1")
	}
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("snapshot has %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.N != 4 {
		t.Fatalf("record has %d spans, want 4", r.N)
	}
	if got := r.StageDur(StageScatter); got != 3*time.Millisecond {
		t.Fatalf("scatter stage dur = %v, want 3ms", got)
	}
	if got := r.StageDur(StageForward); got != 0 {
		t.Fatalf("negative-duration span not clamped: %v", got)
	}
	if r.Spans[1].Arg != 3 || r.Spans[2].Arg != 1 {
		t.Fatalf("span args = %d, %d; want 3, 1", r.Spans[1].Arg, r.Spans[2].Arg)
	}
	if r.Spans[3].Start >= 0 {
		t.Fatalf("pre-Begin span offset = %d, want negative", r.Spans[3].Start)
	}
}

func TestSpanOverflowCountsDropped(t *testing.T) {
	tr := newTest(1, 0, 8)
	var a Active
	tr.Begin(&a, Context{})
	for i := 0; i < MaxSpans+5; i++ {
		tr.Span(&a, StageForward, time.Now(), time.Microsecond)
	}
	tr.Finish(&a, false)
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].N != MaxSpans || recs[0].Dropped != 5 {
		t.Fatalf("overflow record: n=%d dropped=%d (len %d), want n=%d dropped=5",
			recs[0].N, recs[0].Dropped, len(recs), MaxSpans)
	}
}

func TestSpansAreNotRecordedOutsideALeg(t *testing.T) {
	tr := newTest(1, 0, 8)
	var a Active
	tr.Span(&a, StageForward, time.Now(), time.Millisecond) // before Begin: histogram only
	tr.Begin(&a, Context{})
	tr.Finish(&a, false)
	tr.Span(&a, StageForward, time.Now(), time.Millisecond) // after Finish: histogram only
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].N != 0 {
		t.Fatalf("dead-leg spans leaked into the record: n=%d", recs[0].N)
	}
	// Both observations still reached the stage histogram.
	if c := tr.StageHistogram(StageForward).Count(); c != 2 {
		t.Fatalf("forward histogram count = %d, want 2", c)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := newTest(1, 0, 4) // capacity rounds to 4
	var a Active
	for i := 0; i < 10; i++ {
		tr.Begin(&a, Context{ID: uint64(i + 1)})
		tr.Finish(&a, false)
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.ID < 7 {
			t.Fatalf("ring kept stale trace %d after wrap", r.ID)
		}
	}
}

func TestTraceByIDStitchesLegs(t *testing.T) {
	tr := newTest(-1, 0, 16)
	var root, leg Active
	ctx := Context{ID: tr.NewID(), Sampled: true}
	tr.BeginAt(&root, ctx, time.Now().Add(-time.Millisecond))
	tr.Begin(&leg, ctx)
	tr.Finish(&leg, false)
	tr.Finish(&root, false)
	legs := tr.TraceByID(ctx.ID)
	if len(legs) != 2 {
		t.Fatalf("stitched %d legs, want 2", len(legs))
	}
	if legs[0].Start > legs[1].Start {
		t.Fatal("legs not sorted by start time")
	}
}

func TestNewIDsAreDistinctAndNonzero(t *testing.T) {
	tr := newTest(-1, 0, 8)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := tr.NewID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d at draw %d: zero or repeated", id, i)
		}
		seen[id] = true
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageDecode: "decode", StageQueue: "queue", StageForward: "forward",
		StageEncode: "encode", StageClient: "client", StageScatter: "scatter",
		StageRetry: "retry",
		numStages:  "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

func TestStageStats(t *testing.T) {
	tr := newTest(-1, 0, 8)
	var a Active
	tr.Begin(&a, Context{})
	for i := 0; i < 100; i++ {
		tr.Span(&a, StageForward, time.Now(), 10*time.Millisecond)
	}
	tr.Finish(&a, false)
	stats := tr.StageStats()
	if len(stats) != 1 {
		t.Fatalf("StageStats has %d rows, want 1 (only forward observed)", len(stats))
	}
	s := stats[0]
	if s.Stage != "forward" || s.Count != 100 {
		t.Fatalf("row = %+v", s)
	}
	// 10ms falls in a bucket; mean is exact, p99 is bucket-interpolated.
	if s.Mean < 9*time.Millisecond || s.Mean > 11*time.Millisecond {
		t.Fatalf("mean = %v, want ~10ms", s.Mean)
	}
	if s.P99 < 5*time.Millisecond || s.P99 > 50*time.Millisecond {
		t.Fatalf("p99 = %v, want within the 10ms bucket's bounds", s.P99)
	}
}

func TestConcurrentFinishAndScrape(t *testing.T) {
	tr := newTest(1, 4, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a Active
			for i := 0; i < 500; i++ {
				ctx := tr.Root(&a)
				tr.Span(&a, StageForward, time.Now(), time.Microsecond)
				tr.Finish(&a, i%7 == 0)
				_ = ctx
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, r := range tr.Snapshot() {
				if r.ID == 0 {
					t.Error("snapshot returned a zero-ID record")
					return
				}
			}
		}
	}()
	wg.Wait()
	finished, retained := tr.Counts()
	if finished != 2000 {
		t.Fatalf("finished = %d, want 2000", finished)
	}
	if retained+tr.dropped.Load() != 2000 {
		t.Fatalf("retained %d + dropped %d != finished 2000", retained, tr.dropped.Load())
	}
}

func TestChromeExportValidates(t *testing.T) {
	tr := newTest(1, 0, 8)
	var a Active
	ctx := tr.Root(&a)
	tr.Span(&a, StageDecode, time.Now(), time.Millisecond)
	tr.SpanArg(&a, StageScatter, 0, time.Now(), 2*time.Millisecond)
	tr.Finish(&a, false)

	var failed Active
	tr.Begin(&failed, Context{ID: ctx.ID})
	tr.Finish(&failed, true)

	var buf jsonBuffer
	if err := WriteChrome(&buf, tr.TraceByID(ctx.ID)); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// The output must be valid Chrome trace-event JSON: a traceEvents array
	// of objects each carrying ph/pid/tid, loadable by Perfetto.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.b, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.b)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 legs: each has one metadata event and one enclosing request event,
	// plus the root leg's 2 spans.
	if len(doc.TraceEvents) != 2*2+2 {
		t.Fatalf("got %d events, want 6:\n%s", len(doc.TraceEvents), buf.b)
	}
	var sawErrName, sawTraceID bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Pid != 1 || ev.Tid < 1 {
			t.Fatalf("event ids pid=%d tid=%d", ev.Pid, ev.Tid)
		}
		if ev.Ph == "M" {
			if name, _ := ev.Args["name"].(string); name == "leg 2 (err)" {
				sawErrName = true
			}
		}
		if ev.Name == "request" {
			if _, ok := ev.Args["trace_id"].(string); ok {
				sawTraceID = true
			}
		}
	}
	if !sawErrName {
		t.Fatal("errored leg not labeled in metadata")
	}
	if !sawTraceID {
		t.Fatal("request event missing trace_id arg")
	}
}

// jsonBuffer avoids importing bytes just for a writer.
type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}

// TestHotPathAllocs is the tracing half of the repo's zero-allocation
// contract: Begin + spans + Finish allocate nothing, whether the leg is
// retained (rate 1: every Finish copies into the ring) or not (rate
// disabled: pure histogram feeding).
func TestHotPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"sampling_off", -1},
		{"retain_all", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(Config{SampleRate: tc.rate, SlowestN: 4, Capacity: 64})
			var a Active
			start := time.Now()
			allocs := testing.AllocsPerRun(1000, func() {
				tr.Begin(&a, Context{})
				tr.Span(&a, StageDecode, start, time.Microsecond)
				tr.Span(&a, StageQueue, start, time.Microsecond)
				tr.SpanArg(&a, StageForward, 2, start, time.Millisecond)
				tr.Span(&a, StageEncode, start, time.Microsecond)
				tr.Finish(&a, false)
			})
			if allocs != 0 {
				t.Fatalf("traced hot path allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	tr := New(Config{})
	if tr.rate != DefaultSampleRate {
		t.Fatalf("default rate = %v", tr.rate)
	}
	if tr.slowN != 8 {
		t.Fatalf("default slowN = %d", tr.slowN)
	}
	if len(tr.slots) != 256 {
		t.Fatalf("default capacity = %d", len(tr.slots))
	}
	// Capacity rounds up to a power of two.
	if tr2 := New(Config{Capacity: 100}); len(tr2.slots) != 128 {
		t.Fatalf("capacity 100 rounded to %d, want 128", len(tr2.slots))
	}
}
