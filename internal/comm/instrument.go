package comm

// Serving-path observability: a ServerMetrics bundle of telemetry series the
// server updates per request, and a FeatureObserver hook that mirrors
// transmitted features to an observer. Both are opt-in and cost exactly one
// nil check each on the hot path when disabled, which the zero-allocation
// serve-loop tests and benchmarks pin.

import (
	"time"

	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// FeatureObserver receives the intermediate feature tensors clients
// transmit, exactly as the serving worker is about to compute on them.
// audit.Sampler implements it. No serving binary attaches one: the hook is
// kept only for bench/ until ROADMAP item 2.
//
// ObserveFeatures is called synchronously on the worker goroutine once per
// input tensor (batched requests observe each input), after the request
// resolved its model but before any body pass. The tensor is owned by the
// request: an implementation that retains it must copy, and must return
// quickly — its latency is request latency.
type FeatureObserver interface {
	ObserveFeatures(model string, version int, features *tensor.Tensor)
}

// FeatureObserver32 is the optional float32 ingress of a FeatureObserver: on
// a PrecisionF32 server, observers that implement it receive the f32-decoded
// tensors the compute path actually runs on, with no widening copy on the
// hot path. audit.Sampler implements it (widening only inside its sampled
// branch); an observer that does not is handed a widened copy — one
// allocation per observed tensor, the honest fallback that keeps the
// observer seeing production-precision features either way. Kept only for
// bench/ until ROADMAP item 2.
type FeatureObserver32 interface {
	ObserveFeatures32(model string, version int, features *tensor.Tensor32)
}

// WithObserver mirrors every request's transmitted features into o. A nil
// observer (the default) leaves the hot path untouched. Kept only for bench/
// until ROADMAP item 2.
func WithObserver(o FeatureObserver) ServerOption {
	return func(opts *serverOptions) { opts.observer = o }
}

// WithMetrics makes the server record per-request telemetry into m. A nil
// bundle (the default) leaves the hot path untouched.
func WithMetrics(m *ServerMetrics) ServerOption {
	return func(opts *serverOptions) { opts.metrics = m }
}

// WithTracer attaches a request tracer: every request's decode, queue,
// forward, and encode legs feed the tracer's per-stage histograms, and
// tail-sampled requests (errors, the slowest seen,
// plus a probabilistic sample) retain full span timelines in the tracer's
// ring — scrapeable via the admin plane's /traces endpoints. A nil tracer
// (the default) leaves the hot path untouched; with one attached, the span
// storage recycles with the server's jobs, so tracing performs no
// steady-state allocation either.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(opts *serverOptions) { opts.tracer = t }
}

// ServerMetrics is the per-request telemetry the serving path maintains.
// Construct with NewServerMetrics so the series land in a scrapeable
// registry; every field is updated lock-free.
type ServerMetrics struct {
	// Requests counts requests served, including failed ones.
	Requests *telemetry.Counter
	// Errors counts requests answered with an error response.
	Errors *telemetry.Counter
	// Images counts input rows served (batch rows × inputs per request).
	Images *telemetry.Counter
	// ServeSeconds observes per-request server-side time: resolve + body-set
	// lookup (or compile) + all hosted body passes. Its Sum divided by
	// workers × uptime is the pool utilization.
	ServeSeconds *telemetry.Histogram
	// BatchInputs observes the number of feature tensors per request (1 for
	// a plain Infer, len(Inputs) for InferBatch).
	BatchInputs *telemetry.Histogram
}

// NewServerMetrics registers the serving metric family into r under the
// ensembler_server_* namespace and returns the bundle to pass to
// WithMetrics.
func NewServerMetrics(r *telemetry.Registry) *ServerMetrics {
	return &ServerMetrics{
		Requests: r.Counter("ensembler_server_requests_total",
			"Requests served, including failed ones.", nil),
		Errors: r.Counter("ensembler_server_errors_total",
			"Requests answered with an error response.", nil),
		Images: r.Counter("ensembler_server_images_total",
			"Input rows pushed through the hosted bodies.", nil),
		ServeSeconds: r.Histogram("ensembler_server_serve_seconds",
			"Server-side time per request: resolve, body-set lookup, body passes.",
			telemetry.DefaultLatencyBuckets, nil),
		BatchInputs: r.Histogram("ensembler_server_batch_inputs",
			"Feature tensors per request (batched requests carry several).",
			telemetry.DefaultSizeBuckets, nil),
	}
}

// record tallies one finished request.
func (m *ServerMetrics) record(j *job, dur time.Duration) {
	m.Requests.Inc()
	if j.resp.Err != "" {
		m.Errors.Inc()
	}
	inputs, rows := j.pay.size()
	m.BatchInputs.Observe(float64(inputs))
	m.Images.Add(uint64(rows))
	m.ServeSeconds.Observe(dur.Seconds())
}

// observeTensor applies the wire trust boundary (validate before the
// observer may copy) and routes one tensor to the observer at the precision
// the compute path actually runs on: float64 tensors through ObserveFeatures,
// float32 tensors through the FeatureObserver32 side interface (or a widened
// copy when the observer predates it), so the observer sees what production
// really computed on.
func observeTensor[T tensor.Float](o FeatureObserver, model string, version int, t *tensor.Dense[T]) {
	if validateFeatures(t) != nil {
		return
	}
	switch t := any(t).(type) {
	case *tensor.Tensor:
		o.ObserveFeatures(model, version, t)
	case *tensor.Tensor32:
		if o32, ok := o.(FeatureObserver32); ok {
			o32.ObserveFeatures32(model, version, t)
		} else {
			o.ObserveFeatures(model, version, tensor.Widen64(t))
		}
	}
}
