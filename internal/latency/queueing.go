package latency

import "fmt"

// This file models the continuous-batching dispatcher of the comm subsystem
// (internal/comm/dispatch.go) as an open queueing system. Requests from many
// connections arrive at an aggregate Poisson rate λ; the dispatcher holds the
// first job it sees for a batch window W while co-arrivals accumulate, then
// runs the coalesced batch through one stacked forward pass. The window buys
// batch occupancy at the price of added latency, and this model prices that
// trade: mean batch size B = 1 + λW, and the window-wait a job experiences is
// a mixture — the batch's first job waits the full W, the remaining B−1
// co-arrivals land uniformly inside the window. That gives the wait CDF
//
//	F(x) = (1 − 1/B) · x/W   for x < W,  F(W) = 1
//
// whose quantiles, plus the stacked service time B·S and a light M/D/1-style
// congestion term, yield the predicted p50/p99 that
// TestServingEndToEndContinuousBatching (internal/comm) gates against a
// measured loopback run.

// QueueingScenario describes one operating point of the batching dispatcher.
type QueueingScenario struct {
	Base    Scenario // device/link/model parameters; Base.Batch is ignored
	Workers int      // server workers computing in parallel

	// EffectiveParallel caps how many workers actually compute concurrently
	// (the host's usable cores); 0 means Workers. Same clamp as
	// ServingScenario — predictions only match a measurement taken at the
	// same effective parallelism.
	EffectiveParallel int

	// WireFactor scales transferred bytes relative to the float32 payload,
	// as in ServingScenario. 0 means 1.
	WireFactor float64

	// ArrivalRPS is the aggregate request arrival rate across all client
	// connections, treated as Poisson.
	ArrivalRPS float64

	// WindowSeconds is the dispatcher's batch window (-batch-window): how
	// long the first job of a batch is held while co-arrivals from other
	// connections accumulate. 0 means greedy dispatch — coalescing still
	// happens when the queue is backed up, but nobody is held deliberately.
	WindowSeconds float64

	// MaxBatch caps the coalesced batch size (WithMaxCoalesce); 0 leaves
	// the mean batch unclamped.
	MaxBatch int

	// ServiceSeconds, when > 0, overrides the modeled per-request server
	// service time with a measured one — the calibration hook the e2e
	// gate uses: measure an unbatched loopback run, feed its per-request
	// time here, and the prediction shares the measurement's hardware
	// reality instead of the Table III device model. 0 derives the service
	// time from Base via the serving model.
	ServiceSeconds float64
}

// QueueingEstimate is the model's prediction for one queueing scenario.
type QueueingEstimate struct {
	Name string
	// MeanBatch is the expected coalesced batch size, 1 + λW clamped.
	MeanBatch float64
	// Utilization is offered load over service capacity (ρ).
	Utilization float64
	// WaitP50Seconds / WaitP99Seconds are quantiles of the window wait
	// alone — how long a request sits in the intake queue.
	WaitP50Seconds float64
	WaitP99Seconds float64
	// P50Seconds / P99Seconds are end-to-end latency quantiles: window
	// wait + congestion + stacked batch service + wire/client overhead.
	P50Seconds float64
	P99Seconds float64
	// ThroughputRPS is the sustained request rate: the arrival rate, capped
	// by service capacity.
	ThroughputRPS float64
	// Saturated reports ρ ≥ 1: arrivals outrun the worker pool, the intake
	// queue grows until admission control sheds, and the latency quantiles
	// above describe only the admitted survivors.
	Saturated bool
}

// String formats one row of the queueing table.
func (e QueueingEstimate) String() string {
	row := fmt.Sprintf("%-22s B %.1f  util %3.0f%%  p50 %6.1fms  p99 %6.1fms  %.0f req/s",
		e.Name, e.MeanBatch, 100*e.Utilization, 1e3*e.P50Seconds, 1e3*e.P99Seconds, e.ThroughputRPS)
	if e.Saturated {
		row += "  SATURATED"
	}
	return row
}

// EstimateContinuousBatching evaluates the open queueing model at one
// operating point. Window 0 with a sub-capacity arrival rate reduces to the
// plain per-request round trip.
func EstimateContinuousBatching(sc QueueingScenario) QueueingEstimate {
	if sc.Workers <= 0 {
		sc.Workers = 1
	}
	srv := ServingScenario{Base: sc.Base, Workers: sc.Workers, Clients: 1, Batch: 1,
		EffectiveParallel: sc.EffectiveParallel, WireFactor: sc.WireFactor}
	var request, service float64
	if sc.ServiceSeconds > 0 {
		// Calibrated mode: the measured per-request time is the whole
		// round trip on loopback — wire and client compute are noise.
		request, service = sc.ServiceSeconds, sc.ServiceSeconds
	} else {
		request, service = servingTimes(&srv)
	}
	// Wire and client compute happen outside the stacked pass and are paid
	// once per request regardless of batch occupancy.
	overhead := request - service
	if overhead < 0 {
		overhead = 0
	}

	lam := sc.ArrivalRPS
	if lam < 0 {
		lam = 0
	}
	w := sc.WindowSeconds
	if w < 0 {
		w = 0
	}

	// Mean batch occupancy: the first job plus the λW Poisson co-arrivals
	// the window collects, clamped by the coalescing cap.
	b := 1 + lam*w
	if sc.MaxBatch > 0 && b > float64(sc.MaxBatch) {
		b = float64(sc.MaxBatch)
	}

	// Stacking B single-row requests costs B single-row passes on a serial
	// host — batching amortizes dispatch overhead, not compute — so each
	// request still consumes `service` seconds of pool time and capacity is
	// independent of the window.
	eff := float64(srv.effectiveWorkers())
	capacity := 0.0
	if service > 0 {
		capacity = eff / service
	}
	rho := 0.0
	if capacity > 0 {
		rho = lam / capacity
	}
	saturated := capacity > 0 && rho >= 1

	batchService := b * service

	// Light M/D/1-flavored congestion term for the queue behind the window:
	// mean residual work scales as ρ/(1−ρ) of a batch service. Clamped so a
	// saturated scenario reports a large-but-finite number with the
	// Saturated flag carrying the real verdict.
	rc := rho
	if rc > 0.95 {
		rc = 0.95
	}
	congestion := rc * batchService / (2 * (1 - rc))

	// Window-wait quantiles from the mixture CDF: mass 1/B at exactly W
	// (each batch's first job), the rest uniform over [0, W).
	waitQ := func(q float64) float64 {
		if w == 0 {
			return 0
		}
		edge := 1 - 1/b
		if q < edge {
			return q * w / edge
		}
		return w
	}
	wait50, wait99 := waitQ(0.50), waitQ(0.99)

	thr := lam
	if capacity > 0 && thr > capacity {
		thr = capacity
	}
	return QueueingEstimate{
		Name:           fmt.Sprintf("λ=%.0f/s w=%.0fms", lam, 1e3*w),
		MeanBatch:      b,
		Utilization:    rho,
		WaitP50Seconds: wait50,
		WaitP99Seconds: wait99,
		P50Seconds:     wait50 + congestion + batchService + overhead,
		P99Seconds:     wait99 + congestion + batchService + overhead,
		ThroughputRPS:  thr,
		Saturated:      saturated,
	}
}
