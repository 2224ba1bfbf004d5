// Package telemetry is the serving stack's metrics substrate: lock-free
// atomic counters and histograms, and gauges computed at scrape time,
// collected into a Registry that renders the Prometheus text exposition
// format (version 0.0.4). It exists so the control plane
// (cmd/ensembler-serve's -admin-addr endpoints) can observe a production
// deployment — QPS, latency, batch sizes, shard health, live epoch, recorded
// leakage — without the serving hot path ever taking a lock or allocating.
//
// Design constraints, in order:
//
//  1. The update path (Counter.Add, Histogram.Observe) is a
//     handful of atomic operations: safe from any goroutine, no allocation,
//     no lock. Contention on one hot counter is a single cache line.
//  2. Scraping is rare and may be slow: WriteProm takes the registry lock,
//     snapshots every series with atomic loads, and may call arbitrary
//     observer functions (GaugeFunc/CounterFunc) — which is how cheap
//     "computed at scrape" metrics like worker utilization or shard health
//     are exported without any bookkeeping on the request path.
//  3. No external dependencies: the exposition format is simple enough that
//     hand-rolling it is smaller than any client library, and this repo
//     vendors nothing.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: per-bucket atomic counters plus an
// atomically accumulated sum. Buckets are upper bounds in ascending order;
// an implicit +Inf bucket catches the rest. Observe is lock-free (a short
// scan over a small immutable slice plus three atomics).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// DefaultLatencyBuckets spans microseconds to seconds — wide enough for both
// a loopback tiny-arch request and a paper-scale batch on a slow host.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultSizeBuckets covers request batch sizes up to (and past) the comm
// server's default cap.
var DefaultSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets must ascend, got %v", bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v; a linear scan beats binary search at these sizes and
	// branch-predicts well for clustered observations.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// NewHistogram builds a standalone histogram (not attached to a registry) —
// for callers like internal/trace that always need stage stats but only
// sometimes have a registry to export them through.
func NewHistogram(buckets []float64) *Histogram { return newHistogram(buckets) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank, the same estimate a
// histogram_quantile() PromQL query would produce. Observations in the +Inf
// bucket are reported as the highest finite bound (there is nothing better
// to interpolate against). Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := uint64(0)
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: clamp to the highest finite bound.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*inBucket/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Labels attach constant dimensions to one series, e.g. {"shard": "2"}.
// They are rendered sorted by key, so any map order yields one series name.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes the quote, backslash, and newline exactly as the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// series is one (name, labels) instance of a metric family. render returns
// the complete sample line(s) for the series, newline-free at the end.
type series struct {
	labels string
	render func() string
}

// family is one metric name: its type, help, and every labelled series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
}

// Registry holds metric families and renders them. Registration takes a
// lock; the returned metric objects are then updated lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register adds one series, enforcing the Prometheus data model: a metric
// name has exactly one type, and a (name, labels) pair exists at most once.
// Violations are programming errors and panic.
func (r *Registry) register(name, help, typ string, labels Labels, render func() string) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	rendered := labels.render()
	for _, s := range f.series {
		if s.labels == rendered {
			panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, rendered))
		}
	}
	f.series = append(f.series, &series{labels: rendered, render: render})
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	ls := labels.render()
	r.register(name, help, "counter", labels, func() string {
		return fmt.Sprintf("%s%s %d", name, ls, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is computed at scrape time.
// fn must be safe to call from any goroutine and should be cheap.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	ls := labels.render()
	r.register(name, help, "counter", labels, func() string {
		return fmt.Sprintf("%s%s %s", name, ls, formatFloat(fn()))
	})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call from any goroutine and should be cheap.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	ls := labels.render()
	r.register(name, help, "gauge", labels, func() string {
		return fmt.Sprintf("%s%s %s", name, ls, formatFloat(fn()))
	})
}

// Histogram registers and returns a histogram series with the given bucket
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", labels, func() string {
		return renderHistogram(name, labels, h)
	})
	return h
}

// renderHistogram emits the _bucket/_sum/_count sample lines for one series.
// _count is printed as the +Inf cumulative bucket, not the count field:
// Observe increments buckets before the count, so under a concurrent scrape
// the two can transiently disagree, and Prometheus requires the +Inf bucket
// to equal _count exactly — deriving one from the other keeps the invariant
// by construction.
func renderHistogram(name string, labels Labels, h *Histogram) string {
	var b strings.Builder
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(&b, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(&b, "%s_sum%s %s\n", name, labels.render(), formatFloat(h.Sum()))
	fmt.Fprintf(&b, "%s_count%s %d", name, labels.render(), cum)
	return b.String()
}

// bucketLabels merges the series labels with the le bucket label.
func bucketLabels(labels Labels, le string) string {
	merged := Labels{"le": le}
	for k, v := range labels {
		merged[k] = v
	}
	return merged.render()
}

// formatFloat renders a float the way Prometheus expects: integers without
// an exponent, specials as +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WriteProm renders every family in registration order: # HELP and # TYPE
// once per family, then each series' samples.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if _, err := fmt.Fprintln(w, s.render()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns the /metrics scrape endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Scrape errors mean the client went away; nothing useful to do.
		_ = r.WriteProm(w)
	})
}
