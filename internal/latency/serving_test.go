package latency

import (
	"math"
	"strings"
	"testing"
)

func servingBase() Scenario { return Ensembler(10) }

// concurrencySpeedup is the predicted throughput ratio of clients concurrent
// connections over one, with the pool clamped to maxParallel cores (0 = no
// clamp).
func concurrencySpeedup(workers, maxParallel, clients int) float64 {
	at := func(c int) float64 {
		return EstimateServing(ServingScenario{Base: servingBase(), Workers: workers, Clients: c, Batch: 1,
			EffectiveParallel: maxParallel}).ThroughputRPS
	}
	return at(clients) / at(1)
}

// TestServingEstimatesPinned holds the estimates bench/run.go turns into
// latency.loopback_pred_err_pct and latency.sharded_pred_err_pct (two load
// generators, effective parallelism 2) at the values recorded before PR 24.
// Calibrating LoopbackBench to the served architecture moves these on
// purpose; anything else that moves them has changed a benchmark metric.
func TestServingEstimatesPinned(t *testing.T) {
	serving := func(n, batch int, wire, compute float64) float64 {
		return EstimateServing(ServingScenario{Base: LoopbackBench(n), Workers: 2, Clients: 2, Batch: batch,
			EffectiveParallel: 2, WireFactor: wire, ComputeFactor: compute}).ThroughputRPS
	}
	cases := []struct {
		name      string
		got, want float64
	}{
		{"edge_f64", serving(10, 1, WireFactorBinary, ComputeFactorF64), 3.4655526030077994},
		{"batch8_f32", serving(10, 8, WireFactorBinaryF32, ComputeFactorF32), 0.61893733986963961},
		{"tiny_rpc_full", serving(2, 1, WireFactorBinary, ComputeFactorF64), 17.846519540916596},
		{"fleet2_rotating", EstimateShardedServing(ShardedScenario{Base: LoopbackBench(10), Shards: 2, Workers: 1,
			Clients: 2, Batch: 1}).ThroughputRPS, 3.5350591716190527},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want)/c.want > 1e-12 {
			t.Errorf("%s: predicted %.17g req/s, want %.17g", c.name, c.got, c.want)
		}
	}
}

func TestSingleClientMatchesRoundTrip(t *testing.T) {
	est := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 1, Batch: 1})
	want := 1 / est.RequestSeconds
	if math.Abs(est.ThroughputRPS-want)/want > 1e-12 {
		t.Errorf("single client throughput %.6f, want 1/rtt = %.6f", est.ThroughputRPS, want)
	}
}

func TestConcurrencyRaisesThroughputUntilSaturation(t *testing.T) {
	const workers = 4
	var last ServingEstimate
	for _, c := range []int{1, 2, 4, 8, 16, 64} {
		est := EstimateServing(ServingScenario{Base: servingBase(), Workers: workers, Clients: c, Batch: 1})
		if est.ThroughputRPS < last.ThroughputRPS-1e-12 {
			t.Errorf("throughput decreased from %v to %v", last, est)
		}
		last = est
	}
	// At saturation the pool bound is active: X = workers / serverTime.
	base := servingBase()
	base.Batch = 1
	serverBound := float64(workers) / Run(base).Server
	if math.Abs(last.ThroughputRPS-serverBound)/serverBound > 1e-9 {
		t.Errorf("saturated throughput %.4f, want worker bound %.4f", last.ThroughputRPS, serverBound)
	}
	if math.Abs(last.Utilization-1) > 1e-9 {
		t.Errorf("saturated utilization %.4f, want 1", last.Utilization)
	}
}

func TestConcurrencySpeedupExceedsTwo(t *testing.T) {
	// The acceptance regime of the serving subsystem: 8 concurrent clients
	// against a 4-worker pool must be predicted at >2× a single
	// connection.
	s := concurrencySpeedup(4, 0, 8)
	if s <= 2 {
		t.Errorf("predicted concurrency speedup %.2f, want > 2", s)
	}
}

func TestEffectiveParallelismClampsPredictions(t *testing.T) {
	// An 8-worker pool on a single usable core serves like one worker, so
	// the predicted concurrency speedup must collapse toward 1×, not promise
	// 4.5×.
	clamped := concurrencySpeedup(8, 1, 8)
	unclamped := concurrencySpeedup(8, 0, 8)
	if clamped >= unclamped {
		t.Errorf("clamp to 1 core did not reduce the prediction: %.2f vs %.2f", clamped, unclamped)
	}
	one := EstimateServing(ServingScenario{Base: servingBase(), Workers: 8, Clients: 64, Batch: 1, EffectiveParallel: 1})
	wOne := EstimateServing(ServingScenario{Base: servingBase(), Workers: 1, Clients: 64, Batch: 1})
	if math.Abs(one.ThroughputRPS-wOne.ThroughputRPS)/wOne.ThroughputRPS > 1e-12 {
		t.Errorf("8 workers clamped to 1 core must serve like 1 worker: %.4f vs %.4f", one.ThroughputRPS, wOne.ThroughputRPS)
	}
	if !strings.Contains(one.String(), "par=1") || strings.Contains(wOne.String(), "par=") {
		t.Errorf("only the clamped row should name its parallelism: %q vs %q", one, wOne)
	}
	// A clamp at or above the pool size is a no-op.
	loose := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 64, Batch: 1, EffectiveParallel: 16})
	plain := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 64, Batch: 1})
	if loose.ThroughputRPS != plain.ThroughputRPS {
		t.Error("clamp above the pool size changed the estimate")
	}
}

func TestWireFactorScalesCommunication(t *testing.T) {
	slim := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 1, Batch: 1, WireFactor: WireFactorBinaryF32})
	fat := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 1, Batch: 1, WireFactor: WireFactorBinary})
	if fat.RequestSeconds <= slim.RequestSeconds {
		t.Errorf("f64 wire round trip %.4fs not slower than f32 wire %.4fs", fat.RequestSeconds, slim.RequestSeconds)
	}
	// The delta is exactly the extra communication time.
	base := servingBase()
	base.Batch = 1
	comm := Run(base).Communication
	want := (WireFactorBinary - WireFactorBinaryF32) * comm
	if got := fat.RequestSeconds - slim.RequestSeconds; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("wire factor delta %.6fs, want %.6fs", got, want)
	}
}

func TestBatchingRaisesImageThroughput(t *testing.T) {
	var first, last ServingEstimate
	for i, b := range []int{1, 4, 16, 64} {
		est := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 8, Batch: b})
		if est.ThroughputIPS < last.ThroughputIPS-1e-12 {
			t.Errorf("image throughput decreased from %v to %v", last, est)
		}
		if i == 0 {
			first = est
		}
		last = est
	}
	if last.ThroughputIPS <= first.ThroughputIPS {
		t.Error("batching must raise image throughput over single-image requests")
	}
}

func TestEstimateServingDefaults(t *testing.T) {
	est := EstimateServing(ServingScenario{Base: servingBase()})
	if est.ThroughputRPS <= 0 || est.RequestSeconds <= 0 {
		t.Errorf("defaulted estimate degenerate: %+v", est)
	}
}
