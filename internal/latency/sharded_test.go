package latency

import (
	"math"
	"testing"
)

// shardedBase is an Ensembler scenario with server parallelism 1, so the
// server term is maximally visible to the sharding model.
func shardedBase() Scenario {
	sc := Ensembler(10)
	sc.Server.Parallelism = 1
	return sc
}

func TestShardedReducesToMonolithAtK1(t *testing.T) {
	base := shardedBase()
	encrypted := base
	encrypted.EncryptedFactor = 78.6
	for _, b := range []Scenario{base, encrypted} {
		mono := EstimateServing(ServingScenario{Base: b, Workers: 4, Clients: 8, Batch: 2})
		one := EstimateShardedServing(ShardedScenario{Base: b, Shards: 1, Workers: 4, Clients: 8, Batch: 2})
		if math.Abs(mono.RequestSeconds-one.RequestSeconds) > 1e-9 {
			t.Errorf("%s: K=1 request time %.6f vs monolith %.6f", b.Name, one.RequestSeconds, mono.RequestSeconds)
		}
		if math.Abs(mono.ThroughputRPS-one.ThroughputRPS) > 1e-9 {
			t.Errorf("%s: K=1 throughput %.6f vs monolith %.6f", b.Name, one.ThroughputRPS, mono.ThroughputRPS)
		}
	}
}

func TestShardingIsMaxOverShardsNotSumOverBodies(t *testing.T) {
	base := shardedBase()
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 5, 10} {
		_, maxServer, _ := shardedTimes(&ShardedScenario{Base: base, Shards: k, Workers: 1, Clients: 1, Batch: 1})
		if maxServer >= prev {
			t.Errorf("K=%d server time %.6f did not shrink from %.6f", k, maxServer, prev)
		}
		prev = maxServer
	}
	// At K=N every shard hosts one body: no waves, no contention — the
	// server term is a single body pass.
	_, maxServer, _ := shardedTimes(&ShardedScenario{Base: base, Shards: 10, Workers: 1, Clients: 1, Batch: 1})
	single := base.Spec.BodyFLOPs() / base.Server.EffectiveFLOPS
	if math.Abs(maxServer-single) > 1e-12 {
		t.Errorf("K=N server time %.6f, want one body pass %.6f", maxServer, single)
	}
}

func TestShardingChargesUploadFanOut(t *testing.T) {
	base := shardedBase()
	_, _, comm1 := shardedTimes(&ShardedScenario{Base: base, Shards: 1, Workers: 1, Clients: 1, Batch: 1})
	_, _, comm5 := shardedTimes(&ShardedScenario{Base: base, Shards: 5, Workers: 1, Clients: 1, Batch: 1})
	if comm5 <= comm1 {
		t.Errorf("K=5 comm %.6f must exceed K=1 comm %.6f (features upload K times)", comm5, comm1)
	}
	// The delta is exactly the four extra feature uploads.
	extra := 4 * base.Spec.FeatureBytes() / base.Link.UpBps
	if math.Abs((comm5-comm1)-extra) > 1e-12 {
		t.Errorf("comm delta %.6f, want %.6f", comm5-comm1, extra)
	}
}

func TestShardedThroughputGatedBySlowestShard(t *testing.T) {
	base := shardedBase()
	// Enough clients that the server pool binds: throughput must scale
	// with the fleet until the client bound takes over.
	est2 := EstimateShardedServing(ShardedScenario{Base: base, Shards: 2, Workers: 1, Clients: 64, Batch: 1})
	est5 := EstimateShardedServing(ShardedScenario{Base: base, Shards: 5, Workers: 1, Clients: 64, Batch: 1})
	if est5.ThroughputRPS <= est2.ThroughputRPS {
		t.Errorf("server-bound fleet throughput must grow with K: K=5 %.3f vs K=2 %.3f",
			est5.ThroughputRPS, est2.ThroughputRPS)
	}
	mono := EstimateServing(ServingScenario{Base: base, Workers: 1, Clients: 64, Batch: 1})
	if est5.ThroughputRPS <= mono.ThroughputRPS {
		t.Errorf("K=5 fleet should out-serve the monolith: %.3f vs %.3f", est5.ThroughputRPS, mono.ThroughputRPS)
	}
	if est2.Utilization <= 0 || est2.Utilization > 1+1e-9 {
		t.Errorf("utilization out of range: %v", est2.Utilization)
	}
}

func TestShardSweepShapes(t *testing.T) {
	for _, k := range []int{1, 2, 10} {
		e := EstimateShardedServing(ShardedScenario{Base: shardedBase(), Shards: k, Workers: 2, Clients: 16, Batch: 4})
		if e.RequestSeconds <= 0 || e.ThroughputRPS <= 0 || e.ThroughputIPS != 4*e.ThroughputRPS {
			t.Errorf("degenerate estimate %+v", e)
		}
	}
	// Shard counts beyond N clamp to one body per shard.
	over := EstimateShardedServing(ShardedScenario{Base: shardedBase(), Shards: 99, Workers: 1, Clients: 1, Batch: 1})
	atN := EstimateShardedServing(ShardedScenario{Base: shardedBase(), Shards: 10, Workers: 1, Clients: 1, Batch: 1})
	if math.Abs(over.RequestSeconds-atN.RequestSeconds) > 1e-12 {
		t.Errorf("K>N should clamp to K=N: %.6f vs %.6f", over.RequestSeconds, atN.RequestSeconds)
	}
}
