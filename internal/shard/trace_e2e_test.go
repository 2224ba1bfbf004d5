package shard_test

import (
	"context"
	"testing"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/shard"
	"ensembler/internal/trace"
)

// TestStitchedTraceAcrossShards is the tracing acceptance run: one logical
// request fanned out by the scatter-gather client to a 2-shard fleet must
// yield one stitched trace — the client's root leg plus one server leg per shard, all sharing
// the root's trace ID — whose stage spans account for the measured
// end-to-end latency within tolerance.
func TestStitchedTraceAcrossShards(t *testing.T) {
	const shards = 2
	// One tracer shared by the client and both in-process shard servers, as
	// one admin plane would see it. Rate 1 so the root coin always forces
	// retention.
	tr := trace.New(trace.Config{SampleRate: 1, SlowestN: -1, Capacity: 64})
	f := commtest.StartShards(t, shards, 4, 2, 11, comm.WithTracer(tr))
	cfg := f.ClientConfig()
	cfg.Tracer = tr
	c, err := shard.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm-up: dial the pools and fault in the runtimes so the timed request
	// measures serving, not connection setup.
	x := imageBatch(1, 12)
	if _, _, err := c.Infer(context.Background(), x); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	logits, _, err := c.Infer(context.Background(), x)
	e2e := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if !logits.AllClose(f.Pipeline.Predict(x), 1e-9) {
		t.Fatal("traced inference diverged from the local pipeline")
	}

	// The timed request's trace is the latest root: group retained records
	// by ID and take the group that started last. Server legs finish on
	// writer goroutines after the response flushed, so poll until the full
	// fleet's worth of legs landed.
	var legs []trace.Record
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		byID := map[uint64][]trace.Record{}
		var latest uint64
		var latestStart int64
		for _, r := range tr.Snapshot() {
			byID[r.ID] = append(byID[r.ID], r)
			if r.Start > latestStart {
				latestStart, latest = r.Start, r.ID
			}
		}
		if len(byID[latest]) >= 1+shards {
			legs = tr.TraceByID(latest)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(legs) != 1+shards {
		t.Fatalf("stitched trace has %d legs, want %d (client root + one per shard)", len(legs), 1+shards)
	}

	// Identify the root leg (it carries the client/scatter stages) and the
	// server legs (decode/queue/forward/encode).
	var root *trace.Record
	var servers []*trace.Record
	for i := range legs {
		if legs[i].StageDur(trace.StageScatter) > 0 || legs[i].StageDur(trace.StageClient) > 0 {
			root = &legs[i]
		} else {
			servers = append(servers, &legs[i])
		}
	}
	if root == nil || len(servers) != shards {
		t.Fatalf("trace has no identifiable root leg (%d server legs)", len(servers))
	}
	if !root.Forced {
		t.Error("root leg not marked as retention-forced at rate 1")
	}

	// The root leg covers the request as the caller experienced it: its
	// duration must match the externally measured end-to-end latency (it is
	// measured strictly inside the Infer call, so it can only be shorter).
	rootDur := time.Duration(root.Dur)
	if rootDur > e2e {
		t.Errorf("root leg %v exceeds measured end-to-end %v", rootDur, e2e)
	}
	if rootDur < e2e/2 {
		t.Errorf("root leg %v accounts for under half the measured end-to-end %v", rootDur, e2e)
	}

	// One scatter span per shard, each shard index exactly once.
	seen := map[int32]bool{}
	for i := 0; i < root.N; i++ {
		if root.Spans[i].Stage == trace.StageScatter {
			if seen[root.Spans[i].Arg] {
				t.Errorf("duplicate scatter span for shard %d", root.Spans[i].Arg)
			}
			seen[root.Spans[i].Arg] = true
		}
	}
	if len(seen) != shards {
		t.Errorf("root leg has scatter spans for %d shards, want %d", len(seen), shards)
	}

	// Every server leg's stage spans (decode, queue, forward, encode) must
	// sum to within tolerance of that leg's total: attribution that misses
	// half the latency, or double-counts past the total, is exactly the
	// blind spot this subsystem exists to remove. The lower bound is
	// conservative — hand-off gaps between stages are real but small next
	// to the forward pass.
	for _, leg := range servers {
		var sum time.Duration
		for _, s := range []trace.Stage{trace.StageDecode, trace.StageQueue,
			trace.StageForward, trace.StageEncode} {
			sum += leg.StageDur(s)
		}
		total := time.Duration(leg.Dur)
		if sum < total/2 {
			t.Errorf("server leg: spans sum to %v, under half the leg total %v", sum, total)
		}
		if sum > total*11/10 {
			t.Errorf("server leg: spans sum to %v, exceeding leg total %v", sum, total)
		}
		if leg.StageDur(trace.StageForward) == 0 {
			t.Error("server leg has no forward span")
		}
	}
}
