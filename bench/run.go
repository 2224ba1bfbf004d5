package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ensembler/internal/latency"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// result is what one phase of one workload reports.
type result struct {
	metrics           map[string]float64
	attempted, failed int
}

// run is one workload at one seed: the inputs and the oracle's expectations
// for the first epoch, shared by every stack the run starts (the model seed
// is fixed, so every stack loads identical weights). The pipeline itself is
// rebuilt where it is needed and not kept, so it stays out of live_heap_mb.
type run struct {
	w       *workload
	seed    int64
	seconds int
	out     string // directory for stores and the trace file
	log     io.Writer
	pool    []*tensor.Tensor
	want    []*tensor.Tensor
	dirs    []string
}

func newRun(w *workload, seed int64, seconds int, out string, log io.Writer) *run {
	r := &run{w: w, seed: seed, seconds: seconds, out: out, log: log, pool: inputPool(w, seed)}
	r.want = predictAll(w.pipeline(), r.pool)
	return r
}

// tempDir makes a scratch directory under the output directory; main removes
// them all when the run ends.
func (r *run) tempDir(name string) (string, error) {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(r.out, name+"-*")
	if err == nil {
		r.dirs = append(r.dirs, dir)
	}
	return dir, err
}

// store publishes the model into a fresh store directory.
func (r *run) store() (string, error) {
	dir, err := r.tempDir("store-" + r.w.name)
	if err != nil {
		return "", err
	}
	return dir, publish(r.w, r.w.pipeline(), dir)
}

// guardRails turns a silently different workload into an error.
func guardRails(s *stack, t roundStats) error {
	if t.failed > 0 {
		return fmt.Errorf("%d of %d requests failed: %w", t.failed, t.n, t.err)
	}
	if t.bytesLo != t.bytesHi {
		return fmt.Errorf("wire bytes differ between requests: %d to %d", t.bytesLo, t.bytesHi)
	}
	if g := s.guard; g != nil && g.Noised()+g.Refusals() != 0 {
		return fmt.Errorf("privacy guard left LevelOK: %d noised, %d refused", g.Noised(), g.Refusals())
	}
	for _, gen := range s.gens {
		if gen.sc == nil {
			continue
		}
		for k, h := range gen.sc.Health() {
			if h.Hedged+h.ShortCircuits+h.Failures != 0 {
				return fmt.Errorf("shard %d: %d hedged, %d short-circuited, %d failed exchanges", k, h.Hedged, h.ShortCircuits, h.Failures)
			}
		}
	}
	return nil
}

// rotateBetween performs the workload's quiesced rotation after round i, and
// after the last one checks that exactly the planned number happened.
func rotateBetween(s *stack, i, planned int, seeds []int64, startVersion int) (time.Duration, error) {
	if i >= planned {
		return 0, nil
	}
	took, err := s.rotate(seeds[i])
	if err != nil {
		return 0, err
	}
	if i == planned-1 {
		ep, err := s.reg.Current(modelName)
		if err != nil {
			return 0, err
		}
		if n := s.reg.RotationCount(modelName); n != uint64(planned) || ep.Version()-startVersion != planned {
			return 0, fmt.Errorf("planned %d rotations: registry counts %d, version advanced by %d", planned, n, ep.Version()-startVersion)
		}
	}
	return took, nil
}

// endToEnd is the untraced measurement: set-up timed setups times (the last
// stack is kept), then rounds equal rounds of fixed work.
func (r *run) endToEnd() (res result, err error) {
	w, total := r.w, r.w.requests(r.seconds)
	var s *stack
	setup := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return res, err
			}
		}
		dir, err := r.store()
		if err != nil {
			return res, err
		}
		start := time.Now()
		if s, err = startStack(w, plain, dir, r.pool, r.want, total/warmDivisor); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()

	seeds := rotationSeeds(r.seed, w.rotations)
	var ph phase
	runtime.GC()
	began := time.Now()
	for i := 0; i < rounds; i++ {
		ph = append(ph, s.round(total/rounds, (*generator).infer))
		if _, err := rotateBetween(s, i, w.rotations, seeds, 1); err != nil {
			return res, err
		}
	}
	wall := time.Since(began)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	t := ph.total()
	res.attempted, res.failed = t.n, t.failed
	if err := guardRails(s, t); err != nil {
		return res, err
	}
	done := float64(t.n - t.failed)
	res.metrics = map[string]float64{
		"throughput_rps":     median(ph.perRound(roundStats.rps)),
		"infer_p50_ms":       median(ph.perRound(func(r roundStats) float64 { return r.p50.Seconds() * 1e3 })),
		"infer_p95_ms":       median(ph.perRound(func(r roundStats) float64 { return r.p95.Seconds() * 1e3 })),
		"allocs_per_req":     float64(t.mallocs) / done,
		"wire_bytes_per_req": float64(t.bytesUp+t.bytesDown) / done,
		"live_heap_mb":       float64(ms.HeapAlloc) / (1 << 20),
		"setup_s":            median(setup),
	}
	fmt.Fprintf(r.log, "# %s measured: %d requests in %d rounds of %d (%d latency samples per percentile), %d rotations, wall %.2fs (rounds %.2fs), set-ups %.2fs\n",
		w.name, t.n, rounds, total/rounds, total/rounds, w.rotations, wall.Seconds(), t.wall.Seconds(), setup)
	fmt.Fprintf(r.log, "# %s cpu %.4f ms/request, %d GCs pausing %.2f ms; per-round req/s %.0f, cpu ms/request %.3f\n",
		w.name, t.cpu.Seconds()*1e3/done, t.gcs, t.gcPause.Seconds()*1e3, ph.perRound(roundStats.rps),
		ph.perRound(func(r roundStats) float64 { return r.cpu.Seconds() * 1e3 / float64(r.n) }))
	return res, nil
}

// stageSums reads the cumulative per-stage time and count of a server's
// tracer; the traced phase differences two readings so warm-up legs do not
// dilute the means.
type stageSums struct {
	sec   [trace.StageEncode + 1]float64
	count [trace.StageEncode + 1]uint64
}

func readStages(servers []*server) []stageSums {
	out := make([]stageSums, len(servers))
	for k, srv := range servers {
		for st := trace.StageDecode; st <= trace.StageEncode; st++ {
			h := srv.tracer.StageHistogram(st)
			out[k].sec[st], out[k].count[st] = h.Sum(), h.Count()
		}
	}
	return out
}

func finishedLegs(servers []*server) (n uint64) {
	for _, srv := range servers {
		f, _ := srv.tracer.Counts()
		n += f
	}
	return n
}

// meanUS is the mean stage time in microseconds between two readings.
func (a stageSums) meanUS(b stageSums, st trace.Stage) float64 {
	if b.count[st] == a.count[st] {
		return 0
	}
	return (b.sec[st] - a.sec[st]) / float64(b.count[st]-a.count[st]) * 1e6
}

// The traced run interleaves many short rounds: on the reference host the
// same stack reads 670 to 1010 req/s between consecutive 1.4 s rounds, so the
// traced/untraced comparison needs the variants to share every host phase.
const (
	tracedRounds    = rounds
	tracedRotations = 2
)

// layers is the traced run: the micro-runs, then a quarter of the request
// count through each of an untraced and a traced stack in interleaved rounds
// (plus, for the production option set, a bare stack for the control-plane
// share), and the per-layer numbers read from outside.
func (r *run) layers() (res result, err error) {
	w := r.w
	per := w.requests(r.seconds) / 4 / tracedRounds
	variants := []variant{plain, traced} // a variant's value is its index below
	if w.production {
		variants = append(variants, bare)
	}
	stacks := make([]*stack, len(variants))
	defer func() {
		for _, s := range stacks {
			if s != nil {
				if cerr := s.close(); err == nil {
					err = cerr
				}
			}
		}
	}()
	for i, v := range variants {
		dir, err := r.store()
		if err != nil {
			return res, err
		}
		if stacks[i], err = startStack(w, v, dir, r.pool, r.want, per); err != nil {
			return res, fmt.Errorf("set-up (variant %d): %w", v, err)
		}
	}
	ps, ts := stacks[plain], stacks[traced]

	microDir, err := r.tempDir("store-micro")
	if err != nil {
		return res, err
	}
	m, err := microRuns(w, w.pipeline(), r.pool[0], microDir)
	if err != nil {
		return res, fmt.Errorf("micro-runs: %w", err)
	}
	if m["comm.dial_ms"], err = dialMS(ps); err != nil {
		return res, err
	}

	rec := newRecorder(ts)
	phases := make([]phase, len(variants))
	seeds := rotationSeeds(r.seed, w.rotations)
	planned := min(w.rotations, tracedRotations)
	var rotateMS, firstMS []float64
	before := readStages(ts.servers)
	began := time.Now()
	for i := 0; i < tracedRounds; i++ {
		for o := range stacks {
			// Alternate the order round by round, so no variant always
			// runs first after the quiesced gap.
			vi := o
			if i%2 == 1 {
				vi = len(stacks) - 1 - o
			}
			s, do := stacks[vi], requestFunc((*generator).infer)
			if s == ts {
				do = rec.request
			}
			phases[vi] = append(phases[vi], s.round(per, do))
		}
		if i >= planned {
			continue
		}
		// Quiesced rotation on every stack; the untraced one supplies the
		// rotation cost and the first request after it, sent alone.
		for _, s := range stacks {
			took, err := rotateBetween(s, i, planned, seeds, 1)
			if err != nil {
				return res, err
			}
			if s == ps {
				rotateMS = append(rotateMS, took.Seconds()*1e3)
				start := time.Now()
				logits, _, err := s.gens[0].infer(context.Background(), 0, r.pool[0])
				if err != nil || !s.oracle.ok(0, logits) {
					return res, fmt.Errorf("first request after rotation %d failed: %v", i, err)
				}
				firstMS = append(firstMS, time.Since(start).Seconds()*1e3)
			}
		}
	}
	wall := time.Since(began)
	// A server finishes a request's leg after it has written the response,
	// so the last legs may trail the last answers by a moment.
	legs := uint64(ts.sent * len(ts.servers))
	for deadline := time.Now().Add(2 * time.Second); finishedLegs(ts.servers) < legs && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	after := readStages(ts.servers)

	for vi, s := range stacks {
		t := phases[vi].total()
		res.attempted += t.n
		res.failed += t.failed
		if err := guardRails(s, t); err != nil {
			return res, fmt.Errorf("variant %d: %w", variants[vi], err)
		}
	}
	pt, tt := phases[plain].total(), phases[traced].total()
	plainRPS := median(phases[plain].perRound(roundStats.rps))
	tracedRPS := median(phases[traced].perRound(roundStats.rps))
	done := float64(tt.n)

	// comm: the client's own timing split, and the servers' stage means (the
	// mean over servers: in a fleet each request visits all of them).
	m["comm.client_us"] = tt.client.Seconds() * 1e6 / done
	m["comm.roundtrip_us"] = tt.roundTrip.Seconds() * 1e6 / done
	m["comm.bytes_up"] = float64(tt.bytesUp) / done
	m["comm.bytes_down"] = float64(tt.bytesDown) / done
	var stageTotal, slowest float64
	var finished, retained uint64
	for k, srv := range ts.servers {
		var sum float64
		for _, st := range []trace.Stage{trace.StageDecode, trace.StageQueue, trace.StageForward, trace.StageEncode} {
			us := before[k].meanUS(after[k], st)
			m["comm.stage_"+st.String()+"_us"] += us / float64(len(ts.servers))
			sum += us
		}
		stageTotal += sum / float64(len(ts.servers))
		slowest = max(slowest, sum)
		f, kept := srv.tracer.Counts()
		finished, retained = finished+f, retained+kept
	}
	// Round trip minus everything the server attributes: client codec,
	// syscalls and loopback — the unattributed remainder, reported.
	m["comm.wire_residual_us"] = m["comm.roundtrip_us"] - stageTotal
	// Every request the traced servers saw finished exactly one leg each.
	// The tracer exposes finished and retained; with retention off the
	// difference is what it dropped.
	if finished != legs {
		return res, fmt.Errorf("traced servers finished %d legs for %d sent", finished, legs)
	}
	m["trace.finished_total"], m["trace.dropped_total"] = float64(finished), float64(finished-retained)

	if w.production {
		full, none := phases[plain].perRound(roundWall), phases[bare].perRound(roundWall)
		m["comm.control_plane_pct"] = (median(full)/median(none) - 1) * 100
		m["privacy.noised_total"], m["privacy.refused_total"] = float64(ps.guard.Noised()), float64(ps.guard.Refusals())
	}

	wire, compute := latency.WireFactorBinary, latency.ComputeFactorF64
	if w.precision == "f32" {
		wire, compute = latency.WireFactorBinaryF32, latency.ComputeFactorF32
	}
	if w.shards == 0 {
		est := latency.EstimateServing(latency.ServingScenario{Base: latency.LoopbackBench(w.n), Workers: generators,
			Clients: generators, Batch: w.rows, EffectiveParallel: generators, WireFactor: wire, ComputeFactor: compute})
		m["latency.loopback_pred_err_pct"] = math.Abs(est.ThroughputRPS-plainRPS) / plainRPS * 100
	} else {
		est := latency.EstimateShardedServing(latency.ShardedScenario{Base: latency.LoopbackBench(w.n), Shards: w.shards,
			Workers: 1, Clients: generators, Batch: w.rows})
		m["latency.sharded_pred_err_pct"] = math.Abs(est.ThroughputRPS-plainRPS) / plainRPS * 100
		if err := rec.shardLegs(m, slowest); err != nil {
			return res, err
		}
		for _, gen := range ts.gens {
			for _, h := range gen.sc.Health() {
				m["shard.requests_total"] += float64(h.Requests)
				m["shard.failures_total"] += float64(h.Failures)
				m["shard.hedged_total"] += float64(h.Hedged)
				m["shard.short_circuits_total"] += float64(h.ShortCircuits)
			}
		}
		m["registry.rotate_ms"], m["registry.post_rotate_first_ms"] = median(rotateMS), median(firstMS)
	}

	m["proc.cpu_ms_per_req"] = pt.cpu.Seconds() * 1e3 / float64(pt.n)
	m["proc.gc_count"] = float64(pt.gcs)
	m["proc.gc_pause_total_ms"] = pt.gcPause.Seconds() * 1e3
	m["bench.trace_overhead_pct"] = (1 - tracedRPS/plainRPS) * 100
	res.metrics = m

	fmt.Fprintf(r.log, "# %s traced run: %d rounds of %d requests per variant, %d rotations, wall %.2fs; untraced %.1f req/s, traced %.1f req/s\n",
		w.name, tracedRounds, per, planned, wall.Seconds(), plainRPS, tracedRPS)
	bodyKey := fmt.Sprintf("nn.body_%s_us", w.precision)
	if w.rows == 8 {
		bodyKey = fmt.Sprintf("nn.body_%s_b8_us", w.precision)
	}
	fmt.Fprintf(r.log, "# %s compute share: %d bodies x %s %.1f us / cpu %.1f us per request = %.0f%%\n",
		w.name, w.n, bodyKey, m[bodyKey], m["proc.cpu_ms_per_req"]*1e3, float64(w.n)*m[bodyKey]/(m["proc.cpu_ms_per_req"]*1e3)*100)
	fmt.Fprintf(r.log, "# %s server stages sum %.1f us of the %.1f us round trip; wire residual %.1f us\n",
		w.name, stageTotal, m["comm.roundtrip_us"], m["comm.wire_residual_us"])
	spans := rec.all()
	rec.reconcile(r.log, spans, tt)
	return res, rec.write(filepath.Join(r.out, "trace-"+w.name+".json"), spans)
}

func roundWall(r roundStats) float64 { return r.wall.Seconds() }
