package latency

import (
	"math"
	"testing"
)

func servingBase() Scenario {
	sc := Ensembler(10)
	return sc
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
	sweep := ConcurrencySweep(servingBase(), workers, 0, 1, []int{1, 2, 4, 8, 16, 64})
	for i := 1; i < len(sweep); i++ {
		if sweep[i].ThroughputRPS < sweep[i-1].ThroughputRPS-1e-12 {
			t.Errorf("throughput decreased from %v to %v", sweep[i-1], sweep[i])
		}
	}
	// At saturation the pool bound is active: X = workers / serverTime.
	last := sweep[len(sweep)-1]
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
	// against a 4-worker replicated pool must be predicted at >2× a single
	// connection.
	s := ConcurrencySpeedup(servingBase(), 4, 0, 1, 8)
	if s <= 2 {
		t.Errorf("predicted concurrency speedup %.2f, want > 2", s)
	}
}

func TestEffectiveParallelismClampsPredictions(t *testing.T) {
	// The BENCH_2026-07-30 lesson: an 8-worker pool on a single usable core
	// serves like one worker, so the predicted concurrency speedup must
	// collapse toward 1×, not promise 4.5×.
	clamped := ConcurrencySpeedup(servingBase(), 8, 1, 1, 8)
	unclamped := ConcurrencySpeedup(servingBase(), 8, 0, 1, 8)
	if clamped >= unclamped {
		t.Errorf("clamp to 1 core did not reduce the prediction: %.2f vs %.2f", clamped, unclamped)
	}
	one := EstimateServing(ServingScenario{Base: servingBase(), Workers: 8, Clients: 64, Batch: 1, EffectiveParallel: 1})
	wOne := EstimateServing(ServingScenario{Base: servingBase(), Workers: 1, Clients: 64, Batch: 1})
	if math.Abs(one.ThroughputRPS-wOne.ThroughputRPS)/wOne.ThroughputRPS > 1e-12 {
		t.Errorf("8 workers clamped to 1 core must serve like 1 worker: %.4f vs %.4f", one.ThroughputRPS, wOne.ThroughputRPS)
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
	sweep := BatchingSweep(servingBase(), 4, 8, []int{1, 4, 16, 64})
	for i := 1; i < len(sweep); i++ {
		if sweep[i].ThroughputIPS < sweep[i-1].ThroughputIPS-1e-12 {
			t.Errorf("image throughput decreased from %v to %v", sweep[i-1], sweep[i])
		}
	}
	if sweep[len(sweep)-1].ThroughputIPS <= sweep[0].ThroughputIPS {
		t.Error("batching must raise image throughput over single-image requests")
	}
}

func TestEstimateServingDefaults(t *testing.T) {
	est := EstimateServing(ServingScenario{Base: servingBase()})
	if est.ThroughputRPS <= 0 || est.RequestSeconds <= 0 {
		t.Errorf("defaulted estimate degenerate: %+v", est)
	}
}

func TestRotationOverheadFraction(t *testing.T) {
	cases := []struct {
		rot  Rotation
		want float64
	}{
		{Rotation{}, 0},                  // no rotation
		{Rotation{PeriodSeconds: 60}, 0}, // free clones
		{Rotation{PeriodSeconds: 60, CloneSeconds: 0.6}, 0.01},
		{Rotation{PeriodSeconds: 1, CloneSeconds: 5}, 1}, // clamp: rotating faster than cloning
		{Rotation{PeriodSeconds: -1, CloneSeconds: 5}, 0},
	}
	for _, c := range cases {
		if got := c.rot.OverheadFraction(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("OverheadFraction(%+v) = %v, want %v", c.rot, got, c.want)
		}
	}
}

func TestRotationCostsOnlySaturatedThroughput(t *testing.T) {
	sc := ServingScenario{Base: servingBase(), Workers: 4, Clients: 64, Batch: 1}
	plain := EstimateServing(sc)
	rotated := EstimateServingRotated(sc, Rotation{PeriodSeconds: 10, CloneSeconds: 1})
	// At saturation, a 10% capacity tax shows up as exactly 10% throughput.
	want := plain.ThroughputRPS * 0.9
	if math.Abs(rotated.ThroughputRPS-want)/want > 1e-9 {
		t.Errorf("rotated throughput %.4f, want %.4f", rotated.ThroughputRPS, want)
	}
	if rotated.RequestSeconds != plain.RequestSeconds {
		t.Error("rotation must not change the unloaded round-trip time")
	}

	// An unsaturated pool hides the rotation cost entirely: the client bound
	// is still the binding constraint.
	light := ServingScenario{Base: servingBase(), Workers: 4, Clients: 1, Batch: 1}
	if a, b := EstimateServing(light), EstimateServingRotated(light, Rotation{PeriodSeconds: 10, CloneSeconds: 1}); a.ThroughputRPS != b.ThroughputRPS {
		t.Errorf("unsaturated throughput moved under rotation: %v vs %v", a.ThroughputRPS, b.ThroughputRPS)
	}
}

func TestRotationSweepMonotonic(t *testing.T) {
	// Longer periods amortize the clone better: throughput must be
	// non-decreasing in the rotation period, and approach the un-rotated
	// estimate as the period grows.
	sweep := RotationSweep(servingBase(), 4, 64, 1, 0.5, []float64{1, 5, 30, 300, 3600})
	for i := 1; i < len(sweep); i++ {
		if sweep[i].ThroughputRPS < sweep[i-1].ThroughputRPS-1e-12 {
			t.Errorf("throughput decreased with a longer period: %v to %v", sweep[i-1], sweep[i])
		}
	}
	plain := EstimateServing(ServingScenario{Base: servingBase(), Workers: 4, Clients: 64, Batch: 1})
	last := sweep[len(sweep)-1]
	if (plain.ThroughputRPS-last.ThroughputRPS)/plain.ThroughputRPS > 0.001 {
		t.Errorf("hourly rotation should cost <0.1%%: %v vs %v", last.ThroughputRPS, plain.ThroughputRPS)
	}
}
