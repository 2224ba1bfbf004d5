package main

import (
	"fmt"
	"runtime"
	"time"

	"ensembler/internal/audit"
	"ensembler/internal/comm"
	"ensembler/internal/ensemble"
	"ensembler/internal/faultpoint"
	"ensembler/internal/nn"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

const microRepeats = 5

// micro is one looped micro-run: f called n times per repeat, reported as
// the median time per call divided by scale (1e3 reports microseconds).
type micro struct {
	name  string
	scale float64
	f     func()
	n     int
	ns    []float64
}

func (b *micro) loop() time.Duration {
	start := time.Now()
	for i := 0; i < b.n; i++ {
		b.f()
	}
	return time.Since(start)
}

// runMicros fixes each micro-run's count once, by doubling until one loop
// lasts 10 ms, then makes microRepeats passes over the whole list: a repeat
// of one function is separated from the next by all the others, so a slow
// host phase of a second or so cannot take every repeat of one metric.
func runMicros(list []*micro, m map[string]float64) {
	for _, b := range list {
		for b.n = 1; b.n < 1<<22 && b.loop() < 10*time.Millisecond; b.n *= 2 {
		}
	}
	for pass := 0; pass < microRepeats; pass++ {
		for _, b := range list {
			b.ns = append(b.ns, float64(b.loop())/float64(b.n))
		}
	}
	for _, b := range list {
		m[b.name] = median(b.ns) / b.scale
	}
}

// onceEach times microRepeats single calls of f (operations that take
// milliseconds and change state, so they cannot loop) and returns the median
// in milliseconds.
func onceEach(f func(i int) error) (float64, error) {
	ms := make([]float64, microRepeats)
	for i := range ms {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return median(ms), nil
}

// allocsPerCall is the mean heap allocations of one call of f.
func allocsPerCall(f func()) float64 {
	const n = 200
	var a, b runtime.MemStats
	f()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

// microRuns measures single layers through their public functions while the
// servers sit idle, on the shapes of the workload's own architecture. dir is
// a scratch store directory of its own.
func microRuns(w *workload, e *ensemble.Ensembler, x *tensor.Tensor, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	var list []*micro
	us := func(name string, f func()) { list = append(list, &micro{name: name, scale: 1e3, f: f}) }
	ns := func(name string, f func()) { list = append(list, &micro{name: name, scale: 1, f: f}) }

	// tensor: the second convolution of the first residual block — C→C, 3×3,
	// stride 1 on the block's output grid — is the body's largest panel, and
	// its im2col product is the matmul measured beside it.
	c, side := w.arch.BlockWidths[0], w.arch.H
	if w.arch.UseMaxPool {
		side /= 2
	}
	side = tensor.ConvOutSize(side, 3, 2, 1)
	weight, cols, prod := tensor.New(c, c*9), tensor.New(c*9, side*side), tensor.New(c, side*side)
	weight32, cols32, prod32 := tensor.Narrow32(weight), tensor.Narrow32(cols), tensor.Narrow32(prod)
	for _, rows := range []int{1, 8} {
		in, out := tensor.New(rows, c, side, side), tensor.New(rows, c, side, side)
		in32, out32 := tensor.Narrow32(in), tensor.Narrow32(out)
		suffix := "_us"
		if rows == 8 {
			suffix = "_b8_us"
		}
		us("tensor.conv_f64"+suffix, func() { tensor.ConvForwardInto(out, in, weight, nil, cols, 3, 3, 1, 1) })
		us("tensor.conv_f32"+suffix, func() { tensor.ConvForwardInto32(out32, in32, weight32, nil, cols32, 3, 3, 1, 1) })
	}
	us("tensor.matmul_f64_us", func() { tensor.MatMulInto(prod, weight, cols) })
	us("tensor.matmul_f32_us", func() { tensor.MatMulInto32(prod32, weight32, cols32) })
	// Computed from the shapes, not counted by the kernel: one row's
	// multiply-adds, and the f64 bytes of input, weights and output.
	m["tensor.conv_flops"] = float64(2 * c * c * 9 * side * side)
	m["tensor.conv_bytes"] = float64(8 * (c*side*side*2 + c*c*9))

	// nn: one body's ForwardInfer over a warmed scratch.
	rt := e.NewClientRuntime()
	body := e.Members[0].Body
	body32, err := nn.CompileF32(body)
	if err != nil {
		return nil, err
	}
	for _, rows := range []int{1, 8} {
		feat := rt.Features(tensor.New(rows, w.arch.InC, w.arch.H, w.arch.W)).Clone()
		feat32 := tensor.Narrow32(feat)
		sc, sc32 := body.InferScratch(feat.Shape...), body32.InferScratch(feat.Shape...)
		f64 := func() { sc.Reset(); body.ForwardInfer(feat, sc) }
		suffix := "_us"
		if rows == 8 {
			suffix = "_b8_us"
		}
		us("nn.body_f64"+suffix, f64)
		us("nn.body_f32"+suffix, func() { sc32.Reset(); body32.ForwardInfer(feat32, sc32) })
		if rows == 1 {
			m["nn.body_allocs"] = allocsPerCall(f64)
			m["nn.scratch_kb"] = float64(sc.Footprint()) / 1024
		}
	}
	// ensemble: the client half and the server half of one request, apart.
	feat := rt.Features(x).Clone()
	bs := e.NewBodyScratch()
	outs := e.ServerComputeWith(feat, bs)
	held := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		held[i] = o.Clone()
	}
	us("ensemble.client_features_us", func() { rt.Features(x) })
	us("ensemble.select_tail_us", func() { rt.Tail.Forward(rt.Select(held), false) })
	us("ensemble.server_compute_us", func() { e.ServerComputeWith(feat, bs) })
	m["ensemble.clone_bodies_ms"], _ = onceEach(func(int) error { e.CloneBodies(); return nil })
	if m["ensemble.rotate_ms"], err = onceEach(func(i int) error {
		_, err := e.Rotate(ensemble.RotateOptions{Seed: int64(i + 1)})
		return err
	}); err != nil {
		return nil, err
	}

	// registry: publish, cold open, rotation and the per-request resolve on a
	// store of its own.
	store, err := registry.Create(dir)
	if err != nil {
		return nil, err
	}
	if m["registry.publish_ms"], err = onceEach(func(int) error {
		_, err := store.PublishPrecision(modelName, e, w.precision)
		return err
	}); err != nil {
		return nil, err
	}
	var reg *registry.Registry
	if m["registry.open_load_ms"], err = onceEach(func(int) (err error) {
		reg, err = registry.OpenDir(dir)
		return err
	}); err != nil {
		return nil, err
	}
	if m["registry.rotate_ms"], err = onceEach(func(i int) error {
		_, err := reg.RotateSelector(modelName, ensemble.RotateOptions{Seed: int64(i + 1)})
		return err
	}); err != nil {
		return nil, err
	}
	ns("registry.resolve_ns", func() { reg.Resolve(modelName, 0) })

	// The control plane's per-request hooks, each alone.
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetEps: 1e6, QueryEps: 1e-9})
	if err != nil {
		return nil, err
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		return nil, err
	}
	acct := guard.AccountFor("bench-micro")
	charge := func() { guard.Charge(acct, 1) }
	ns("privacy.charge_ns", charge)
	m["privacy.charge_allocs"] = allocsPerCall(charge)

	tr := trace.New(trace.Config{})
	var act trace.Active
	ns("trace.record_ns", func() {
		tr.Begin(&act, trace.Context{})
		now := time.Now()
		for s := trace.StageDecode; s <= trace.StageEncode; s++ {
			tr.Span(&act, s, now, time.Microsecond)
		}
		tr.Finish(&act, false)
	})
	hist := telemetry.NewHistogram(telemetry.DefaultLatencyBuckets)
	ns("telemetry.observe_ns", func() { hist.Observe(0.0003) })
	sampler := audit.NewSampler(100, 64, modelSeed)
	ns("audit.sampler_skip_ns", func() { sampler.ObserveFeatures(modelName, 1, feat) })
	site := faultpoint.New("bench/micro")
	ns("faultpoint.disarmed_ns", func() { site.Inject() })

	runMicros(list, m)
	// The measured value of latency.ComputeFactorF32, which is hand-set at 0.7.
	m["nn.f32_ratio"] = m["nn.body_f32_us"] / m["nn.body_f64_us"]
	if guard.Noised()+guard.Refusals() != 0 {
		return nil, fmt.Errorf("privacy micro-run left LevelOK: %d noised, %d refused", guard.Noised(), guard.Refusals())
	}
	return m, nil
}

// dialMS is the median connection set-up time against a live server,
// handshake included.
func dialMS(s *stack) (float64, error) {
	return onceEach(func(i int) error {
		opts := []comm.DialOption{comm.WithWire(s.w.wire)}
		if s.w.production {
			opts = append(opts, comm.WithClientID(fmt.Sprintf("bench-dial-%d", i)))
		}
		c, err := comm.Dial(s.servers[0].addr, opts...)
		if err != nil {
			return err
		}
		return c.Close()
	})
}
