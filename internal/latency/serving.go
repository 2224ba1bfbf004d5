package latency

import "fmt"

// This file models the serving regimes of the comm subsystem: many client
// connections, a bounded pool of server-side workers (all running one shared
// compiled copy of the N bodies), and multi-row requests that amortize
// protocol overhead. It is the analytic counterpart of the closed-loop workloads
// bench/run.sh measures (which report its error as
// latency.loopback_pred_err_pct), built as a closed queueing system: each of
// C clients keeps exactly one request in flight, the server completes at most
// one request per worker every S seconds, and the round-trip time seen by an
// unloaded client is client compute + transfer + server compute.

// ServingScenario describes one operating point of the concurrent server.
type ServingScenario struct {
	Base    Scenario // device/link/model parameters; Base.Batch is ignored
	Workers int      // server workers computing in parallel
	Clients int      // concurrent client connections, one request in flight each
	Batch   int      // images per request: the rows of its one feature tensor

	// EffectiveParallel caps how many workers actually compute
	// concurrently — the host's usable cores (GOMAXPROCS on the bench
	// host). A pool of 8 workers on 1 core serves like 1 worker: a
	// GOMAXPROCS=1 run once measured 0.94× from 8 connections against an
	// unclamped prediction of 4.5×. 0 means Workers (unclamped).
	EffectiveParallel int

	// WireFactor scales transferred bytes relative to the float32 payload
	// the Table III link model assumes: WireFactorBinary for float64
	// payloads, WireFactorBinaryF32 for float32. 0 means 1
	// (float32-equivalent bytes).
	WireFactor float64

	// ComputeFactor scales the server-side body-pass time relative to the
	// float64 reference kernels the base scenario's FLOP model is calibrated
	// against: ComputeFactorF64 for the reference path, ComputeFactorF32 for
	// the vectorized float32 backend. Client compute is not scaled — the
	// tail stays with the client at whatever precision it chooses, and the
	// serving model only commits to the server's. 0 means 1 (float64).
	ComputeFactor float64
}

// Wire factors for the serving model, relative to raw float32 payloads.
const (
	// WireFactorBinary: float64 payloads — twice the float32 bytes,
	// negligible framing.
	WireFactorBinary = 2.0
	// WireFactorBinaryF32: float32 payloads — the link model's native
	// operating point.
	WireFactorBinaryF32 = 1.0
)

// Compute factors for the serving model, relative to the float64 reference
// kernels. Measured on the repo's own blocked kernels (BenchmarkServeRequestLoop
// in both precisions): the float32 backend halves memory traffic and doubles
// effective SIMD width, landing near 0.7× the f64 body-pass time on the CI
// host — conservative against the ≥3× throughput gate the CI enforces.
const (
	// ComputeFactorF64: the reference float64 path the FLOP model is
	// calibrated against.
	ComputeFactorF64 = 1.0
	// ComputeFactorF32: the vectorized float32 backend (8-wide panels,
	// half the bytes per cache line).
	ComputeFactorF32 = 0.7
)

// effectiveWorkers applies the host-parallelism clamp.
func (sc ServingScenario) effectiveWorkers() int {
	if sc.EffectiveParallel > 0 && sc.EffectiveParallel < sc.Workers {
		return sc.EffectiveParallel
	}
	return sc.Workers
}

// ServingEstimate is the model's prediction for one serving scenario.
type ServingEstimate struct {
	Name string
	// RequestSeconds is the unloaded round-trip latency of one request.
	RequestSeconds float64
	// ThroughputRPS is the sustained request rate with all clients active.
	ThroughputRPS float64
	// ThroughputIPS is the sustained image rate (requests × batch).
	ThroughputIPS float64
	// Utilization is the fraction of worker capacity kept busy.
	Utilization float64
}

// String formats one row of the serving table.
func (e ServingEstimate) String() string {
	return fmt.Sprintf("%-18s rtt %.3fs  %.2f req/s  %.1f img/s  util %.0f%%",
		e.Name, e.RequestSeconds, e.ThroughputRPS, e.ThroughputIPS, 100*e.Utilization)
}

// servingTimes evaluates the base scenario at the serving operating point,
// returning the unloaded round-trip time and the per-request server time.
// The wire factor scales only the communication component.
func servingTimes(sc *ServingScenario) (request, service float64) {
	base := sc.Base
	if sc.Batch <= 0 {
		sc.Batch = 1
	}
	if sc.Workers <= 0 {
		sc.Workers = 1
	}
	if sc.Clients <= 0 {
		sc.Clients = 1
	}
	wire := sc.WireFactor
	if wire <= 0 {
		wire = 1
	}
	compute := sc.ComputeFactor
	if compute <= 0 {
		compute = 1
	}
	base.Batch = sc.Batch
	b := Run(base)
	server := float64(compute * b.Server)
	return b.Client + server + float64(wire*b.Communication), server
}

// EstimateServing evaluates the closed-system model: throughput is bounded
// both by the clients' request-issue rate (Clients / round-trip) and by the
// server pool's service rate (Workers / server-time-per-request).
func EstimateServing(sc ServingScenario) ServingEstimate {
	request, service := servingTimes(&sc)
	// A pool larger than the host's usable cores serves at the cores' rate:
	// the extra workers only queue (see ServingScenario.EffectiveParallel).
	workers := sc.effectiveWorkers()
	x := float64(sc.Clients) / request
	if service > 0 {
		if serverBound := float64(workers) / service; serverBound < x {
			x = serverBound
		}
	}
	name := fmt.Sprintf("c=%d w=%d b=%d", sc.Clients, sc.Workers, sc.Batch)
	if workers < sc.Workers {
		name += fmt.Sprintf(" par=%d", workers)
	}
	return ServingEstimate{
		Name:           name,
		RequestSeconds: request,
		ThroughputRPS:  x,
		ThroughputIPS:  x * float64(sc.Batch),
		Utilization:    x * service / float64(workers),
	}
}
