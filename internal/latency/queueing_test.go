package latency

import (
	"math"
	"testing"
)

// TestQueueingWindowZeroReducesToPerRequest pins the model's base case: no
// window and no offered load is just the unloaded round trip — the queueing
// layer must vanish when its knobs are off.
func TestQueueingWindowZeroReducesToPerRequest(t *testing.T) {
	base := LoopbackBench(3)
	srv := ServingScenario{Base: base, Workers: 1, Clients: 1, Batch: 1}
	request, _ := servingTimes(&srv)

	e := EstimateContinuousBatching(QueueingScenario{Base: base, Workers: 1})
	if e.MeanBatch != 1 {
		t.Errorf("idle mean batch = %v, want 1", e.MeanBatch)
	}
	if e.WaitP99Seconds != 0 || e.WaitP50Seconds != 0 {
		t.Errorf("idle window wait = (%v, %v), want 0", e.WaitP50Seconds, e.WaitP99Seconds)
	}
	if math.Abs(e.P99Seconds-request) > 1e-12 || math.Abs(e.P50Seconds-request) > 1e-12 {
		t.Errorf("idle p50/p99 = (%v, %v), want the unloaded round trip %v",
			e.P50Seconds, e.P99Seconds, request)
	}
	if e.Saturated {
		t.Error("idle scenario reported saturated")
	}
}

// TestQueueingWindowDominatedRegime pins the operating point the e2e serving
// test runs in: a tiny calibrated service time and a window that dwarfs it.
// The p99 must be the window plus the stacked pass, and the first-job mass of
// the wait CDF must put the wait p99 at exactly W.
func TestQueueingWindowDominatedRegime(t *testing.T) {
	e := EstimateContinuousBatching(QueueingScenario{
		Workers:        1,
		ArrivalRPS:     200,
		WindowSeconds:  0.025,
		ServiceSeconds: 0.001,
	})
	if want := 1 + 200*0.025; e.MeanBatch != want {
		t.Errorf("mean batch = %v, want %v", e.MeanBatch, want)
	}
	if e.WaitP99Seconds != 0.025 {
		t.Errorf("wait p99 = %v, want the full window 0.025", e.WaitP99Seconds)
	}
	if e.P99Seconds < 0.025 {
		t.Errorf("p99 = %v below the window itself", e.P99Seconds)
	}
	// Window-dominated means the window is most of the answer: stacked
	// service (6ms) + congestion on a 20%-utilized pool stays small.
	if e.P99Seconds > 2*0.025 {
		t.Errorf("p99 = %v, want window-dominated (< 50ms)", e.P99Seconds)
	}
	if e.Saturated {
		t.Error("20%%-utilized scenario reported saturated")
	}
}

// TestQueueingMonotonicity pins the two directions the planning table is
// read in: widening the window never lowers p99 and never lowers batch
// occupancy; raising the arrival rate never lowers occupancy.
func TestQueueingMonotonicity(t *testing.T) {
	sc := QueueingScenario{Workers: 1, ServiceSeconds: 0.0005}
	windows := []float64{0, 0.005, 0.010, 0.025, 0.050}
	rates := []float64{10, 50, 100, 400}
	for _, r := range rates {
		prevP99, prevB := -1.0, 0.0
		for _, w := range windows {
			pt := sc
			pt.ArrivalRPS = r
			pt.WindowSeconds = w
			e := EstimateContinuousBatching(pt)
			if e.P99Seconds < prevP99 {
				t.Errorf("λ=%v: p99 dropped from %v to %v as window grew to %v",
					r, prevP99, e.P99Seconds, w)
			}
			if e.MeanBatch < prevB {
				t.Errorf("λ=%v: mean batch shrank from %v to %v at window %v",
					r, prevB, e.MeanBatch, w)
			}
			prevP99, prevB = e.P99Seconds, e.MeanBatch
		}
	}
	// Occupancy grows with offered load at a fixed window.
	lo := EstimateContinuousBatching(QueueingScenario{Workers: 1, ServiceSeconds: 0.0005, ArrivalRPS: 20, WindowSeconds: 0.02})
	hi := EstimateContinuousBatching(QueueingScenario{Workers: 1, ServiceSeconds: 0.0005, ArrivalRPS: 200, WindowSeconds: 0.02})
	if hi.MeanBatch <= lo.MeanBatch {
		t.Errorf("mean batch %v at λ=200 not above %v at λ=20", hi.MeanBatch, lo.MeanBatch)
	}
}

// TestQueueingSaturation pins the admission-control regime: arrivals beyond
// pool capacity must raise the Saturated flag, cap throughput at capacity,
// and still report finite latency for the admitted survivors.
func TestQueueingSaturation(t *testing.T) {
	// Capacity = 1 worker / 10ms = 100 req/s; offer 250.
	e := EstimateContinuousBatching(QueueingScenario{
		Workers: 1, ServiceSeconds: 0.010, ArrivalRPS: 250, WindowSeconds: 0.005,
	})
	if !e.Saturated {
		t.Fatalf("ρ = %v did not report saturated", e.Utilization)
	}
	if math.Abs(e.ThroughputRPS-100) > 1e-9 {
		t.Errorf("saturated throughput = %v, want the 100 req/s capacity", e.ThroughputRPS)
	}
	if math.IsInf(e.P99Seconds, 0) || math.IsNaN(e.P99Seconds) || e.P99Seconds <= 0 {
		t.Errorf("saturated p99 = %v, want finite and positive", e.P99Seconds)
	}

	under := EstimateContinuousBatching(QueueingScenario{
		Workers: 1, ServiceSeconds: 0.010, ArrivalRPS: 50, WindowSeconds: 0.005,
	})
	if under.Saturated {
		t.Errorf("ρ = %v reported saturated", under.Utilization)
	}
	if under.ThroughputRPS != 50 {
		t.Errorf("sub-capacity throughput = %v, want the offered 50 req/s", under.ThroughputRPS)
	}
}

// TestQueueingMaxBatchClamp pins the coalescing cap: occupancy cannot exceed
// WithMaxCoalesce no matter how much load the window collects.
func TestQueueingMaxBatchClamp(t *testing.T) {
	e := EstimateContinuousBatching(QueueingScenario{
		Workers: 4, EffectiveParallel: 4, ServiceSeconds: 0.0001,
		ArrivalRPS: 10_000, WindowSeconds: 0.050, MaxBatch: 8,
	})
	if e.MeanBatch != 8 {
		t.Errorf("mean batch = %v, want clamped to 8", e.MeanBatch)
	}
}

// TestQueueingSweepGrid pins how a rate × window planning grid reads: every
// point labels itself distinctly and a zero window never batches.
func TestQueueingSweepGrid(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range []float64{50, 200} {
		for _, w := range []float64{0, 0.010, 0.025} {
			e := EstimateContinuousBatching(QueueingScenario{Workers: 1, ServiceSeconds: 0.001,
				ArrivalRPS: r, WindowSeconds: w})
			if seen[e.Name] {
				t.Errorf("duplicate row label %q", e.Name)
			}
			seen[e.Name] = true
			if e.String() == "" {
				t.Error("empty formatted row")
			}
			if w == 0 && e.MeanBatch != 1 {
				t.Errorf("λ=%v window 0: mean batch = %v, want 1", r, e.MeanBatch)
			}
		}
	}
}
