package latency

import "fmt"

// This file models the sharded serving regime of the shard subsystem: K
// independent server processes each hosting a disjoint contiguous subset of
// the N ensemble bodies, with the client scatter-gathering every request
// across all K shards concurrently. The monolithic serving model charges
// the server with all N bodies (waves over its parallelism); here the
// fleet's server time is the *max over shards* — the slowest shard gates
// the gather — at the price of uploading the transmitted features K times
// (every shard needs the full head output) through the client's single
// uplink. Downloads are unchanged in total: the N feature vectors are
// merely split across shards.

// ShardedScenario describes one operating point of a K-shard fleet.
type ShardedScenario struct {
	Base    Scenario // device/link/model parameters; Base.N is the ensemble size
	Shards  int      // K server processes, disjoint body subsets (shard.Plan)
	Workers int      // workers per shard
	Clients int      // concurrent client connections, one request in flight each
	Batch   int      // images per request
}

// shardedTimes evaluates the component times of one sharded request:
// client compute, the slowest shard's per-request server time, and the
// scatter-gather communication time.
func shardedTimes(sc *ShardedScenario) (client, maxServer, comm float64) {
	base := &sc.Base
	if sc.Batch <= 0 {
		sc.Batch = 1
	}
	if sc.Workers <= 0 {
		sc.Workers = 1
	}
	if sc.Clients <= 0 {
		sc.Clients = 1
	}
	n := base.N
	if n <= 0 {
		n = 1
	}
	k := sc.Shards
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n // a shard cannot host less than one body
	}
	b := float64(sc.Batch)

	// Client work is independent of both N and K (§III-D): one head pass
	// and one tail pass per image, computed once and fanned out.
	client = b * (base.Spec.HeadFLOPs() + base.Spec.TailFLOPs()) / base.Client.EffectiveFLOPS

	// The slowest shard hosts ceil(N/K) bodies (shard.Plan gives the first
	// N mod K shards one extra). Each shard is its own process on its own
	// device: waves over its local parallelism, contention only among the
	// bodies it actually hosts — sharding shrinks the contention term too.
	maxBodies := (n + k - 1) / k
	waves := (maxBodies + base.Server.Parallelism - 1) / base.Server.Parallelism
	maxServer = b * base.Spec.BodyFLOPs() * float64(waves) / base.Server.EffectiveFLOPS
	if maxBodies > 1 {
		maxServer *= 1 + float64(0.004*float64(maxBodies))
	}

	// Upload: the identical feature tensor goes to all K shards, sharing
	// the client's uplink — K× the payload, one round-trip latency charge
	// (the sends overlap). Download: the N return vectors are split across
	// shards but share the downlink, so total bytes are unchanged.
	up := float64(k)*b*base.Spec.FeatureBytes()/base.Link.UpBps + float64(base.Link.RTTSeconds/2)
	down := b*float64(n)*base.Spec.ServerReturnBytes()/base.Link.DownBps + float64(base.Link.RTTSeconds/2)
	comm = up + down
	// Mirror Run's encrypted-inference reference point: a uniform slowdown
	// over every component, so K=1 stays exactly EstimateServing for
	// encrypted scenarios too.
	if base.EncryptedFactor > 0 {
		client *= base.EncryptedFactor
		maxServer *= base.EncryptedFactor
		comm *= base.EncryptedFactor
	}
	return client, maxServer, comm
}

// EstimateShardedServing evaluates the closed-system model for a K-shard
// fleet: each request occupies one worker at every shard for that shard's
// service time, so the fleet's service rate is gated by its slowest shard
// (Workers / max-shard-time), while the clients' issue rate is bounded by
// the scatter-gather round trip. With Shards == 1 this reduces exactly to
// EstimateServing.
func EstimateShardedServing(sc ShardedScenario) ServingEstimate {
	client, maxServer, comm := shardedTimes(&sc)
	request := client + maxServer + comm
	clientBound := float64(sc.Clients) / request
	serverBound := float64(sc.Workers) / maxServer // +Inf when maxServer is 0: never binding
	x := clientBound
	if serverBound < x {
		x = serverBound
	}
	return ServingEstimate{
		Name:           fmt.Sprintf("c=%d w=%d b=%d K=%d", sc.Clients, sc.Workers, sc.Batch, sc.Shards),
		RequestSeconds: request,
		ThroughputRPS:  x,
		ThroughputIPS:  x * float64(sc.Batch),
		Utilization:    x * maxServer / float64(sc.Workers),
	}
}
