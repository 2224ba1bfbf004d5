// Remote inference: the deployed form of the system. A TCP server hosts the
// N ensemble bodies (the cloud) behind a worker pool, reading
// them through a model registry; the client keeps its head, fixed noise,
// secret selector, and tail, and performs classification over the wire. The
// example verifies the remote result matches local inference bit-for-bit,
// drives the concurrent serving path (a one-shard scatter-gather client that
// pools connections and client runtimes), and then hot-swaps the pipeline
// mid-traffic: the registry rotates the secret selector and publishes the
// result as a new version while concurrent requests keep hammering the
// server — zero failed requests, and the client re-wires to the rotated
// client runtime without a restart.
//
// Each published version is scored by the secret holder — this process, which
// holds the head — with the oracle inversion attack (audit.Score), the
// number ensembler-train records in a version's manifest and ensembler-serve
// reports. The server itself never runs an attack.
//
// The final act shards the same ensemble across a K=3 fleet: each shard
// process hosts a disjoint body subset behind the unchanged wire protocol,
// the scatter-gather client reassembles body order and selects locally, and
// one shard is killed mid-traffic — with zero failed requests, because the
// secret selection never touches the dead shard's bodies and no server can
// know that.
//
//	go run ./examples/remote_inference
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/audit"
	"ensembler/internal/comm"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/registry"
	"ensembler/internal/shard"
	"ensembler/internal/split"
	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
)

// printMetrics renders the telemetry registry and prints the sample lines
// whose names start with any of the prefixes — a gofmt'd stand-in for
// `curl /metrics | grep`.
func printMetrics(treg *telemetry.Registry, prefixes ...string) {
	var b strings.Builder
	if err := treg.WriteProm(&b); err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				fmt.Println("  " + line)
				break
			}
		}
	}
}

// score measures a published version's leakage the way the secret holder
// does at publish time, and prints it.
func score(label string, p *ensemble.Ensembler) registry.Leakage {
	l, err := audit.Score(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leakage of %s: %s attack SSIM %.3f, PSNR %.2f dB (calibration floor %.3f)\n",
		label, l.Strategy, l.SSIM, l.PSNR, l.Floor)
	return l
}

func main() {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, Train: 256, Aux: 16, Test: 64, Seed: 3})
	cfg := ensemble.Config{
		Arch: split.DefaultArch(data.CIFAR10Like), N: 4, P: 2, Sigma: 0.05, Lambda: 0.5, Seed: 4,
		Stage1:      split.TrainOptions{Epochs: 4, BatchSize: 32, LR: 0.05},
		Stage3:      split.TrainOptions{Epochs: 6, BatchSize: 32, LR: 0.05},
		Stage1Noise: true,
	}
	fmt.Println("training a small Ensembler pipeline...")
	e := ensemble.Train(cfg, sp.Train, nil)

	// Cloud side: the trained pipeline is published into a registry, and the
	// server resolves (model, version) per request through it — that is what
	// makes the mid-traffic swap below possible. The server compiles the
	// current epoch's bodies once, and every worker shares them.
	reg := registry.New(nil)
	ep, err := reg.Publish("cifar", e)
	if err != nil {
		log.Fatal(err)
	}
	score(fmt.Sprintf("v%d", ep.Version()), e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	// The server is born instrumented with per-request telemetry, a nil
	// check on the hot path when absent.
	treg := telemetry.NewRegistry()
	srv := comm.NewModelServer(reg, comm.WithWorkers(4), comm.WithMetrics(comm.NewServerMetrics(treg)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	fmt.Printf("server hosting %s v%d (%d bodies) at %s (%d workers)\n",
		ep.Name(), ep.Version(), cfg.N, ln.Addr(), srv.Workers())

	// Edge side: head, noise, secret selector, tail.
	client, err := comm.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.ComputeFeatures = e.ClientFeatures
	client.Select = e.Selector.Apply
	client.Tail = e.Tail

	idxs := make([]int, 32)
	for i := range idxs {
		idxs[i] = i
	}
	x, labels := sp.Test.Batch(idxs)
	logits, timing, err := client.Infer(ctx, x)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("remote batch of %d images: accuracy %.3f\n", len(idxs), nn.Accuracy(logits, labels))
	if logits.AllClose(e.Predict(x), 1e-9) {
		fmt.Println("remote result matches local pipeline exactly ✓")
	}
	if model, version := client.Served(); model == "cifar" {
		fmt.Printf("server reports serving %s v%d (the request carried no header — default-model fallback)\n", model, version)
	}
	fmt.Printf("timing: client %.1fms | network+server round trip %.1fms\n",
		timing.Client.Seconds()*1e3, timing.RoundTrip.Seconds()*1e3)
	fmt.Printf("wire:   %.1f KiB up (features), %.1f KiB down (%d bodies × features)\n",
		float64(timing.BytesUp)/1024, float64(timing.BytesDown)/1024, cfg.N)

	// One round trip can carry several inputs: the server stacks them, runs
	// each body once over the stack, and splits the results back.
	a, _ := sp.Test.Batch([]int{0, 1, 2, 3})
	b, _ := sp.Test.Batch([]int{4, 5, 6, 7})
	batched, bt, err := client.InferBatch(ctx, []*tensor.Tensor{a, b})
	if err != nil {
		log.Fatal(err)
	}
	if batched[0].AllClose(e.Predict(a), 1e-9) && batched[1].AllClose(e.Predict(b), 1e-9) {
		fmt.Printf("batched round trip (2 inputs, %.1fms) matches local inference ✓\n",
			bt.RoundTrip.Seconds()*1e3)
	}

	// Concurrent serving: the scatter-gather client over one shard that
	// hosts every body — the monolith. It pools connections, and each
	// concurrent request runs on its own clone of the client-side networks.
	whole, err := shard.Plan(cfg.N, 1)
	if err != nil {
		log.Fatal(err)
	}
	mono, err := shard.NewClient(shard.Config{
		Addrs:      []string{ln.Addr().String()},
		Ranges:     whole,
		N:          cfg.N,
		NewRuntime: shard.PipelineRuntime(e),
		PoolSize:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mono.Close()

	const requests = 16
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := mono.Infer(ctx, x); err != nil {
				log.Printf("pooled request: %v", err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("pool: %d concurrent requests in %.1fms (%.1f req/s)\n",
		requests, elapsed.Seconds()*1e3, float64(requests)/elapsed.Seconds())

	// --- Mid-traffic hot swap ---
	//
	// A long-lived deployment should not serve forever under one secret
	// subset (the switching-ensembles rationale): rotate it while pooled
	// clients keep the server busy. Server bodies are unchanged by rotation,
	// so requests in flight during the swap still match the old pipeline
	// bit-for-bit; afterwards the client runs the rotated runtime.
	fmt.Printf("\nhot swap: rotating the secret selector under load (old selection %v)\n", e.Selector.Indices)
	var swapErrs atomic.Int64
	stopLoad := make(chan struct{})
	var load sync.WaitGroup
	for i := 0; i < 8; i++ {
		load.Add(1)
		go func() {
			defer load.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, _, err := mono.Infer(ctx, x); err != nil {
					swapErrs.Add(1)
					log.Printf("in-flight request during swap: %v", err)
				}
			}
		}()
	}

	swapStart := time.Now()
	rotatedEp, err := reg.RotateSelector("cifar", ensemble.RotateOptions{
		Seed: 99,
		Tune: sp.Train,
		TuneOpts: split.TrainOptions{
			Epochs: 6, BatchSize: 32, LR: 0.05,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	rotated := rotatedEp.Pipeline()
	// Client-side half of the swap: requests after it run on clones of the
	// rotated head/noise/selector/tail, in-flight ones finish on the runtime
	// they hold, and the pooled connections stay open; no caller ever sees
	// an error.
	mono.RotateTo(rotated)
	close(stopLoad)
	load.Wait()
	fmt.Printf("published %s v%d in %v with traffic flowing; failed requests: %d\n",
		rotatedEp.Name(), rotatedEp.Version(), time.Since(swapStart).Round(time.Millisecond), swapErrs.Load())

	// The rotated pipeline serves through the same socket; results match its
	// local predictions bit-for-bit.
	post, _, err := mono.Infer(ctx, x)
	if err != nil {
		log.Fatal(err)
	}
	if post.AllClose(rotated.Predict(x), 1e-9) {
		fmt.Printf("post-swap result matches the rotated pipeline exactly ✓ (new selection %v, accuracy %.3f)\n",
			rotated.Selector.Indices, rotated.Accuracy(sp.Test))
	}
	// The tuned rotation fine-tuned the head, so the version leaks
	// differently and is scored afresh.
	measured := score(fmt.Sprintf("v%d (tuned rotation)", rotatedEp.Version()), rotated)

	// Multi-model routing on the same socket: publish a canary under its own
	// name and pin one request to it by header.
	if _, err := reg.Publish("cifar-canary", rotated); err != nil {
		log.Fatal(err)
	}
	canary, err := comm.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer canary.Close()
	rt := rotated.NewClientRuntime()
	canary.Model = "cifar-canary"
	canary.ComputeFeatures = rt.Features
	canary.Select = rt.Select
	canary.Tail = rt.Tail
	if _, _, err := canary.Infer(ctx, x); err != nil {
		log.Fatal(err)
	}
	if model, version := canary.Served(); model == "cifar-canary" {
		fmt.Printf("routed a pinned request to %s v%d on the same socket ✓\n", model, version)
	}

	// --- Leakage alert: the server reports, the secret holder acts ---
	//
	// An operator sets the threshold where leakage becomes unacceptable; to
	// watch the alert fire, set it just below what we measured. A server
	// would report the recorded score against it on /leakage.
	threshold := max(measured.SSIM-0.02, 0.01)
	fmt.Printf("\nleakage alert: v%d's recorded SSIM %.3f vs threshold %.3f\n", rotatedEp.Version(), measured.SSIM, threshold)
	if measured.SSIM < measured.Floor {
		fmt.Println("the defense holds: even the oracle attacker reconstructs below the input-independent floor")
	}

	// Acting on the alert is the secret holder's move, never the server's:
	// this process holds the pipeline, so it re-draws the selection itself,
	// scores and publishes it, and re-wires its own clients. A separate
	// server would pick the new version up on SIGHUP.
	live := rotated // the pipeline clients must run after each swap
	if measured.SSIM > threshold {
		ep, err := reg.RotateSelector("cifar", ensemble.RotateOptions{Seed: 777})
		if err != nil {
			log.Fatal(err)
		}
		live = ep.Pipeline()
		mono.RotateTo(live)
		fmt.Printf("leakage above threshold: the secret holder published v%d with a re-drawn selection %v\n",
			ep.Version(), live.Selector.Indices)
		if after := score(fmt.Sprintf("v%d (untuned rotation)", ep.Version()), live); after == measured {
			fmt.Println("the score did not move: an untuned rotation keeps the head and the noise, so the " +
				"features on the wire, and what they leak, are bit-identical (ROADMAP item 6). " +
				"The rotation did not cure the alert; only re-tuning the head changes the score.")
		}
	}
	if post, _, err := mono.Infer(ctx, x); err != nil {
		log.Fatal(err)
	} else if post.AllClose(live.Predict(x), 1e-9) {
		fmt.Printf("post-rotation traffic matches the live pipeline exactly ✓ (selection %v)\n",
			live.Selector.Indices)
	}
	fmt.Println("the control plane's /metrics view of the traffic:")
	printMetrics(treg, "ensembler_server_requests_total")

	cancel()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	fmt.Println("graceful shutdown complete")

	// --- Sharded fleet ---
	//
	// The same ensemble, horizontally scaled: K=3 independent server
	// processes each host a disjoint subset of the N bodies, and the
	// scatter-gather client fans each request's features out to all of
	// them, reassembles body order, and applies the secret selector
	// locally. A compromised shard host now holds only its own bodies —
	// and because the selection is secret, losing a shard that hosts no
	// selected body costs nothing: we kill one mid-traffic and finish with
	// zero failed requests.
	const shards = 3
	fmt.Printf("\nsharded fleet: %d shards over N=%d bodies\n", shards, cfg.N)
	plan, err := shard.Plan(cfg.N, shards)
	if err != nil {
		log.Fatal(err)
	}
	fleetCtx, fleetCancel := context.WithCancel(context.Background())
	defer fleetCancel()
	addrs := make([]string, shards)
	cancels := make([]context.CancelFunc, shards)
	serves := make([]chan error, shards)
	for k, r := range plan {
		provider, err := comm.NewSubsetProvider(reg, r.Lo, r.Hi)
		if err != nil {
			log.Fatal(err)
		}
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer sln.Close()
		sctx, scancel := context.WithCancel(fleetCtx)
		cancels[k] = scancel
		serves[k] = make(chan error, 1)
		ssrv := comm.NewModelServer(provider, comm.WithWorkers(2))
		go func(k int, sln net.Listener) { serves[k] <- ssrv.Serve(sctx, sln) }(k, sln)
		addrs[k] = sln.Addr().String()
		fmt.Printf("  shard %d/%d at %s hosting bodies %s\n", k+1, shards, addrs[k], r)
	}

	fleet, err := shard.NewClient(shard.Config{
		Addrs:      addrs,
		Ranges:     plan,
		N:          cfg.N,
		NewRuntime: shard.PipelineRuntime(live),
		PoolSize:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	fleet.RegisterMetrics(treg) // per-shard health lands in the same scrape

	fleetLogits, ft, err := fleet.Infer(context.Background(), x)
	if err != nil {
		log.Fatal(err)
	}
	if fleetLogits.AllClose(live.Predict(x), 1e-9) {
		fmt.Printf("scatter-gather inference matches local pipeline exactly ✓ (slowest shard %.1fms, %.1f KiB up across %d shards)\n",
			ft.RoundTrip.Seconds()*1e3, float64(ft.BytesUp)/1024, shards)
	}

	// Rotation fan-out in a fleet: the secret holder re-draws the selection
	// in its registry, and the only propagation needed is the scatter-gather
	// client re-wiring — the shard servers never learn anything happened
	// (their bodies, and even their responses, are byte-identical across the
	// rotation).
	fleetEp, err := reg.RotateSelector("cifar", ensemble.RotateOptions{Seed: 888})
	if err != nil {
		log.Fatal(err)
	}
	live = fleetEp.Pipeline()
	fleet.RotateTo(live)
	fanned, _, err := fleet.Infer(context.Background(), x)
	if err != nil {
		log.Fatal(err)
	}
	if fanned.AllClose(live.Predict(x), 1e-9) {
		fmt.Printf("rotation fanned out to the fleet ✓ (selection now %v)\n", live.Selector.Indices)
	}

	// Kill a shard hosting no selected body while traffic flows. The
	// client knows its secret selection; the servers never do — so the
	// demo can pick the victim shard, but no observer of the fleet can.
	victim := -1
	for k, r := range plan {
		hostsSelected := false
		for _, i := range live.Selector.Indices {
			if r.Contains(i) {
				hostsSelected = true
				break
			}
		}
		if !hostsSelected {
			victim = k
			break
		}
	}
	fmt.Printf("killing shard %d/%d mid-traffic (selection %v never touches its bodies %s)\n",
		victim+1, shards, live.Selector.Indices, plan[victim])

	var fleetErrs atomic.Int64
	var fleetReqs atomic.Int64
	stopFleetLoad := make(chan struct{})
	var fleetLoad sync.WaitGroup
	for i := 0; i < 6; i++ {
		fleetLoad.Add(1)
		go func() {
			defer fleetLoad.Done()
			for {
				select {
				case <-stopFleetLoad:
					return
				default:
				}
				if _, _, err := fleet.Infer(context.Background(), x); err != nil {
					fleetErrs.Add(1)
					log.Printf("fleet request: %v", err)
				}
				fleetReqs.Add(1)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	cancels[victim]() // the shard process dies; in-flight requests drain
	time.Sleep(150 * time.Millisecond)
	close(stopFleetLoad)
	fleetLoad.Wait()
	<-serves[victim]

	fmt.Printf("served %d requests across the kill; failed requests: %d\n", fleetReqs.Load(), fleetErrs.Load())
	for _, h := range fleet.Health() {
		fmt.Printf("  shard %s (bodies %s): circuit %s — %d requests, %d failures\n",
			h.Addr, h.Bodies, h.Breaker, h.Requests, h.Failures)
	}
	fmt.Println("the same health, as a scraper sees it:")
	printMetrics(treg, "ensembler_shard_up")
	degraded, _, err := fleet.Infer(context.Background(), x)
	if err != nil {
		log.Fatal(err)
	}
	if degraded.AllClose(live.Predict(x), 1e-9) {
		fmt.Println("degraded fleet still matches local inference exactly ✓")
	}

	fleetCancel()
	for k := range serves {
		if k != victim {
			<-serves[k]
		}
	}
	fmt.Printf("neither the old %v nor the new %v secret selection ever appeared on the wire — on any shard.\n",
		e.Selector.Indices, live.Selector.Indices)
}
