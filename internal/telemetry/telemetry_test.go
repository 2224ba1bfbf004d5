package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", nil)
	r.GaugeFunc("leakage", "rolling SSIM", nil, func() float64 { return 0.25 })
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total requests",
		"# TYPE reqs_total counter",
		"reqs_total 4",
		"# TYPE leakage gauge",
		"leakage 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsRenderSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("shard_up", "", Labels{"shard": "2", "addr": `a"b\c`}, func() float64 { return 1 })
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `shard_up{addr="a\"b\\c",shard="2"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("labelled series = %q, want %q", b.String(), want)
	}
}

func TestHistogramBucketsSumCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-6.05) > 1e-12 {
		t.Errorf("sum = %v, want 6.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 6.05",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMultipleSeriesOneFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shard_requests_total", "per-shard requests", Labels{"shard": "1"})
	b2 := r.Counter("shard_requests_total", "per-shard requests", Labels{"shard": "2"})
	a.Add(1)
	b2.Add(2)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE shard_requests_total counter") != 1 {
		t.Errorf("family header must appear exactly once:\n%s", out)
	}
	if !strings.Contains(out, `shard_requests_total{shard="1"} 1`) ||
		!strings.Contains(out, `shard_requests_total{shard="2"} 2`) {
		t.Errorf("missing per-shard series:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("ok_total", "", nil)
	expectPanic("duplicate series", func() { r.Counter("ok_total", "", nil) })
	expectPanic("type conflict", func() { r.GaugeFunc("ok_total", "", Labels{"a": "b"}, func() float64 { return 0 }) })
	expectPanic("bad name", func() { r.Counter("bad name", "", nil) })
	expectPanic("unsorted buckets", func() { r.Histogram("h", "", []float64{1, 1}, nil) })
}

// TestConcurrentUpdatesAndScrapes exercises the lock-free update path against
// concurrent scrapes under -race.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	h := r.Histogram("h_seconds", "", DefaultLatencyBuckets, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%7) / 100)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WriteProm(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// TestUpdatePathDoesNotAllocate pins the hot-path contract the comm server
// relies on: recording a request must not allocate.
func TestUpdatePathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	h := r.Histogram("h_seconds", "", DefaultLatencyBuckets, nil)
	if n := testing.AllocsPerRun(100, func() { c.Inc(); h.Observe(0.003) }); n != 0 {
		t.Errorf("update path allocates %.1f objects per op, want 0", n)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil).Add(7)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total 7") {
		t.Errorf("scrape body missing sample: %q", buf[:n])
	}
}
