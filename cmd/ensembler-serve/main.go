// Command ensembler-serve hosts the server bodies of trained pipelines over
// TCP — the cloud half of the collaborative-inference deployment. The secret
// selector and the client tail stay with whoever holds the model artifacts;
// the server only ever sees intermediate features and returns the feature
// vectors of every body it hosts.
//
// Models come from either a single file (-model, the legacy path) or a
// versioned registry directory (-model-dir) written by ensembler-train or
// registry.Store.Publish. With a registry directory the server is
// hot-swappable with zero downtime: requests carry an optional
// (model, version) header resolved per request, SIGHUP re-scans the
// directory and swaps newly published versions in while in-flight requests
// finish on their old epoch. The server only reads its store: a new secret
// selection is the secret holder's move (registry.RotateSelector, then
// SIGHUP), never this process's — the honest-but-curious server must not
// mint the secret it is not supposed to know.
//
// -shard k/K turns the process into one member of a sharded fleet: it hosts
// only shard k's contiguous body subset of the ensemble (shard.Plan over
// the model's N), serving the identical wire protocol with fewer feature
// vectors per response. K such processes behind a shard.Client scatter-
// gather runtime replace one monolithic server; a compromised shard host
// then observes only its own bodies' traffic.
//
// Requests from concurrent connections are served by a bounded worker pool
// over one compiled copy of the bodies, shared by every worker and compiled
// again only when a reload swaps in new bodies (a selector rotation keeps
// it); a single-worker server runs one request's body passes in parallel
// instead. SIGINT/SIGTERM triggers a graceful shutdown: in-flight requests
// finish, their responses flush, and Serve returns.
//
// -admin-addr opens the operational control plane on a second listener:
// /healthz (liveness + live epoch), /metrics (Prometheus exposition of QPS,
// latency, batch sizes, epoch version, worker utilization, and audit
// leakage), /leakage (the audit engine's state as JSON), /budget and
// /traces.
//
// -audit-sample N turns on the online privacy audit: every Nth request's
// transmitted features are mirrored into a bounded reservoir, and on the
// -audit-every cadence the process replays the repo's model-inversion attack
// (oracle-grade — the conservative upper bound only the model owner can
// mount) against the live pipeline, scoring reconstructions on a synthetic
// calibration set. The audit is a gauge: /leakage and /metrics report the
// rolling SSIM against -audit-threshold, and acting on a breach is the
// secret holder's move.
//
//	ensembler-serve -model ensembler.gob -addr :7946 -workers 4 -max-batch 64
//	ensembler-serve -model-dir models/ -model-name cifar
//	ensembler-serve -model-dir models/ -shard 2/3 -addr :7948
//	ensembler-serve -model-dir models/ -admin-addr 127.0.0.1:9100 -audit-sample 100
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ensembler/internal/attack"
	"ensembler/internal/audit"
	"ensembler/internal/comm"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/faultpoint"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/shard"
	"ensembler/internal/telemetry"
	"ensembler/internal/trace"
)

// The audit's sampler and attack seeds. They are fixed: the serving process
// holds no seed stream of its own.
const (
	auditSamplerSeed = 1
	auditAttackSeed  = 1 + 7919
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ensembler-serve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses args, opens the model
// source, serves until ctx is cancelled (the signal path in main), and
// returns errors instead of exiting.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ensembler-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "", "trained pipeline file from ensembler-train (single-model mode)")
	modelDir := fs.String("model-dir", "", "versioned model registry directory (multi-model, hot-swappable)")
	modelName := fs.String("model-name", "", "default model name (registry mode; defaults to the first model found)")
	addr := fs.String("addr", "127.0.0.1:7946", "listen address (use :0 to pick a free port)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "compute worker pool size (workers share the bodies; each holds its own activation scratch)")
	maxBatch := fs.Int("max-batch", comm.DefaultMaxBatch, "max inputs per batched request")
	shardSpec := fs.String("shard", "", `host shard k of a K-shard fleet ("k/K"): only that shard's body subset`)
	precisionName := fs.String("precision", "", `compute precision for the hosted body passes: "f64" (reference kernels) or "f32" (vectorized backend, ~1e-7 relative drift); empty defaults to the manifest's commitment, else f64`)
	adminAddr := fs.String("admin-addr", "", "admin plane listen address (/healthz, /metrics, /leakage, /budget, /traces); empty disables")
	traceSample := fs.Float64("trace-sample", trace.DefaultSampleRate, "probability a healthy request's full span timeline is retained (errors and the slowest are always kept); negative disables tail sampling")
	traceSlowest := fs.Int("trace-slowest", 0, "always retain this many slowest requests seen (0 = default)")
	traceCapacity := fs.Int("trace-capacity", 0, "retained-trace ring capacity, rounded up to a power of two (0 = default)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the admin plane (requires -admin-addr)")
	auditSample := fs.Int("audit-sample", 0, "mirror every Nth request's features into the privacy audit (0 disables the audit)")
	auditReservoir := fs.Int("audit-reservoir", 64, "bound on mirrored feature tensors held for the audit")
	auditEvery := fs.Duration("audit-every", time.Minute, "leakage audit cadence")
	auditMinSamples := fs.Int("audit-min-samples", 8, "mirrored tensors required before an audit runs")
	auditThreshold := fs.Float64("audit-threshold", 0.35, "rolling reconstruction SSIM reported as the leakage alert level")
	auditCalib := fs.Int("audit-calib", 64, "synthetic calibration images for the audit's attack replay")
	privacyBudget := fs.Int64("privacy-budget-rows", 0, "rows each client identity may be served; as a client drains its budget responses are noised, then noised harder, and finally refused (0 disables the ledger)")
	privacyPolicy := fs.String("privacy-policy", "enforce", `privacy-budget policy: "enforce" (noise, then refusal as budgets drain) or "observe" (account and report only)`)
	allowFaultpoints := fs.Bool("allow-faultpoints", false, "permit fault injection via "+faultpoint.EnvVar+" (chaos testing only — never set in production)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *maxBatch <= 0 {
		*maxBatch = comm.DefaultMaxBatch // mirror the server's clamping in the banner
	}
	if *auditSample < 0 {
		return fmt.Errorf("-audit-sample must be >= 0 (every Nth request; 0 disables), got %d", *auditSample)
	}
	if *auditSample > 0 && *auditThreshold <= 0 {
		return fmt.Errorf("-audit-threshold must be positive when the audit is enabled, got %v", *auditThreshold)
	}
	if *pprofFlag && *adminAddr == "" {
		return fmt.Errorf("-pprof serves on the admin plane; set -admin-addr")
	}
	if *traceSample > 1 {
		return fmt.Errorf("-trace-sample is a probability; got %v", *traceSample)
	}
	if *traceSlowest < 0 || *traceCapacity < 0 {
		return fmt.Errorf("-trace-slowest and -trace-capacity must be >= 0")
	}
	if *privacyBudget < 0 {
		return fmt.Errorf("-privacy-budget-rows must be >= 0 (0 disables), got %d", *privacyBudget)
	}
	if *privacyPolicy != "enforce" && *privacyPolicy != "observe" {
		return fmt.Errorf(`-privacy-policy must be "enforce" or "observe", got %q`, *privacyPolicy)
	}

	// Fault injection never arms silently: a process started with
	// ENSEMBLER_FAULTPOINTS in its environment refuses to serve unless the
	// operator also passed -allow-faultpoints — an env var inherited from a
	// chaos harness must not ride into a production restart.
	if spec := os.Getenv(faultpoint.EnvVar); spec != "" {
		if !*allowFaultpoints {
			return fmt.Errorf("%s is set (%q) but -allow-faultpoints was not passed: refusing to serve with fault injection armed", faultpoint.EnvVar, spec)
		}
		enabled, deferred, err := faultpoint.EnableFromEnv()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "faultpoints: FAULT INJECTION ACTIVE — armed %v, deferred %v (disarm by unsetting %s)\n",
			enabled, deferred, faultpoint.EnvVar)
	}

	reg, err := openRegistry(*modelPath, *modelDir, *modelName)
	if err != nil {
		return err
	}
	defaultModel := reg.Default()
	cur, err := reg.Current(defaultModel)
	if err != nil {
		return err
	}

	// Precision resolution: the flag wins when set, but never against a
	// manifest that committed this version to the other backend — a model
	// validated for one set of kernels must not be silently served by the
	// other. An unset flag defaults to the commitment (or f64, the
	// reference path, when the manifest makes none).
	manifestPrecision := ""
	if store := reg.Store(); store != nil {
		man, err := store.Manifest(defaultModel, cur.Version())
		if err != nil {
			return err
		}
		manifestPrecision = man.Precision
	}
	precisionStr := *precisionName
	if precisionStr == "" {
		precisionStr = manifestPrecision
	} else if manifestPrecision != "" && precisionStr != manifestPrecision {
		return fmt.Errorf("model %s v%d was published for %s compute; -precision %s disagrees (republish or drop the flag)",
			defaultModel, cur.Version(), manifestPrecision, precisionStr)
	}
	precision, err := comm.ParsePrecision(precisionStr)
	if err != nil {
		return err
	}

	provider := comm.ModelProvider(reg)
	shardBanner := ""
	// checkShardLayout (set in shard mode) re-validates the fleet layout
	// against a given version of the default model; the SIGHUP reload path
	// runs it before swapping anything in, so a model republished for a
	// different fleet never gets served as the wrong subset.
	var checkShardLayout func(version int) error
	if *shardSpec != "" {
		k, total, err := shard.ParseSpec(*shardSpec)
		if err != nil {
			return err
		}
		n := cur.Pipeline().Cfg.N
		plan, err := shard.Plan(n, total)
		if err != nil {
			return fmt.Errorf("planning -shard %s over the %d bodies of %s: %w", *shardSpec, n, defaultModel, err)
		}
		r := plan[k-1]
		// A publisher that committed to a shard layout (-shards at train
		// time) recorded it in the manifest; a disagreeing fleet member
		// must fail loudly, not serve the wrong subset. The check also
		// guards N drift: even at the same K, a different N moves this
		// shard's planned range away from the one being served.
		checkShardLayout = func(version int) error {
			store := reg.Store()
			if store == nil {
				return nil
			}
			man, err := store.Manifest(defaultModel, version)
			if err != nil {
				return fmt.Errorf("verifying shard layout of %s v%d: %w", defaultModel, version, err)
			}
			if man.Shards > 0 {
				if man.Shards != total {
					return fmt.Errorf("model %s v%d was published for a %d-shard fleet; -shard %s disagrees",
						defaultModel, version, man.Shards, *shardSpec)
				}
				// The manifest's recorded ranges are the authoritative
				// commitment — not a fresh shard.Plan, whose algorithm
				// could change between the publishing and serving builds.
				rec := man.ShardRanges[k-1]
				if (shard.Range{Lo: rec.Lo, Hi: rec.Hi}) != r {
					return fmt.Errorf("model %s v%d records shard %d/%d as bodies %d..%d; this process serves %s — restart the fleet",
						defaultModel, version, k, total, rec.Lo, rec.Hi-1, r)
				}
				return nil
			}
			// No recorded commitment: derive the layout and guard N drift —
			// at the same K, a different N moves this shard's range.
			newPlan, err := shard.Plan(man.N, total)
			if err != nil {
				return fmt.Errorf("model %s v%d has %d bodies, unshardable as -shard %s: %w",
					defaultModel, version, man.N, *shardSpec, err)
			}
			if newPlan[k-1] != r {
				return fmt.Errorf("model %s v%d (N=%d) plans shard %d/%d as bodies %s; this process serves %s — restart the fleet",
					defaultModel, version, man.N, k, total, newPlan[k-1], r)
			}
			return nil
		}
		if err := checkShardLayout(cur.Version()); err != nil {
			return err
		}
		provider, err = comm.NewSubsetProvider(reg, r.Lo, r.Hi)
		if err != nil {
			return err
		}
		shardBanner = fmt.Sprintf("shard %d/%d hosting bodies %s of %d — ", k, total, r, n)
	}

	// Observability: the telemetry registry always exists (it is cheap and
	// the audit engine exports through it); per-request server metrics are
	// only attached when an admin plane will scrape them, and the feature
	// sampler only when the audit is on — both hooks cost one nil check on
	// the hot path when absent.
	startTime := time.Now()
	treg := telemetry.NewRegistry()
	serverOpts := []comm.ServerOption{
		comm.WithWorkers(*workers),
		comm.WithMaxBatch(*maxBatch),
		comm.WithPrecision(precision),
	}
	telemetry.RegisterRuntimeMetrics(treg)
	var sm *comm.ServerMetrics
	var tracer *trace.Tracer
	if *adminAddr != "" {
		sm = comm.NewServerMetrics(treg)
		serverOpts = append(serverOpts, comm.WithMetrics(sm))
		// Tracing rides the admin plane: the per-stage histograms land on
		// /metrics and the retained timelines on /traces. Without an admin
		// listener there is nowhere to scrape either, so the hot path keeps
		// its nil tracer.
		tracer = trace.New(trace.Config{
			SampleRate: *traceSample,
			SlowestN:   *traceSlowest,
			Capacity:   *traceCapacity,
			Registry:   treg,
		})
		serverOpts = append(serverOpts, comm.WithTracer(tracer))
	}
	var sampler *audit.Sampler
	if *auditSample > 0 {
		sampler = audit.NewSampler(*auditSample, *auditReservoir, auditSamplerSeed)
		serverOpts = append(serverOpts, comm.WithObserver(sampler))
	}

	// The per-client row budget: each served row is debited from the
	// client's account, and the guard escalates (noise → doubled noise →
	// refusal) as an account drains.
	var privacyLedger *privacy.Ledger
	var privacyGuard *privacy.Guard
	if *privacyBudget > 0 {
		privacyLedger, err = privacy.NewLedger(privacy.LedgerConfig{BudgetRows: *privacyBudget})
		if err != nil {
			return err
		}
		privacyGuard, err = privacy.NewGuard(privacyLedger, privacy.PolicyConfig{Observe: *privacyPolicy == "observe"})
		if err != nil {
			return err
		}
		serverOpts = append(serverOpts, comm.WithBudget(privacyGuard))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	defer ln.Close()
	srv := comm.NewModelServer(provider, serverOpts...)
	// Pin against the pool size the server actually runs (a non-positive
	// -workers keeps the GOMAXPROCS default), not the raw flag value.
	comm.PinKernelParallelism(srv.Workers())

	// A shard that ends up serving a layout-divergent model must stop
	// serving — wrong-subset responses are shape-identical to right ones,
	// so fail-stop is the only loud failure available once a bad version
	// is live. serveCtx cancellation drains in-flight requests first.
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()

	// The leakage audit: mirror sampled live features, replay the decoder
	// attack against the published pipeline on a synthetic calibration set
	// shaped like the model's inputs, and report the leakage.
	var auditor *audit.Auditor
	if sampler != nil {
		arch := cur.Pipeline().Cfg.Arch
		if arch.InC != 3 {
			return fmt.Errorf("-audit-sample: the synthetic calibration generator produces 3-channel images; model %s expects %d input channels", defaultModel, arch.InC)
		}
		calibN := *auditCalib
		if calibN < 8 {
			calibN = 8
		}
		calib := data.Generate(data.Config{
			Kind: data.CIFAR10Like, H: arch.H, W: arch.W,
			Train: 8, Aux: calibN, Test: max(8, calibN/2), Seed: 424242,
		})
		auditor, err = audit.New(audit.Config{
			Registry:    reg,
			Model:       defaultModel,
			Sampler:     sampler,
			MinSamples:  *auditMinSamples,
			Interval:    *auditEvery,
			Attack:      attack.Config{DecoderEpochs: 2, BatchSize: 16, Seed: auditAttackSeed},
			Aux:         calib.Aux,
			Eval:        calib.Test,
			EvalSamples: 16,
			Oracle:      true, // audit against the strongest (oracle) inversion: conservative by construction
			Threshold:   *auditThreshold,
			Ledger:      privacyLedger,
			Log:         stderr,
		})
		if err != nil {
			return err
		}
		auditor.RegisterMetrics(treg)
		go auditor.Run(serveCtx)
	}

	// Process-level gauges: uptime, live epoch, and — when
	// request metrics are on — worker-pool utilization derived from the
	// serve-time histogram.
	treg.GaugeFunc("ensembler_uptime_seconds", "Seconds since this process started serving.",
		nil, func() float64 { return time.Since(startTime).Seconds() })
	treg.GaugeFunc("ensembler_epoch_version", "Version of the default model's live epoch.",
		nil, func() float64 {
			if ep, err := reg.Current(defaultModel); err == nil {
				return float64(ep.Version())
			}
			return 0
		})
	treg.GaugeFunc("ensembler_workers", "Size of the compute worker pool.",
		nil, func() float64 { return float64(srv.Workers()) })
	if privacyGuard != nil {
		treg.GaugeFunc("ensembler_privacy_budget_rows", "Rows each client identity may be served.",
			nil, func() float64 { return float64(privacyLedger.Stats().BudgetRows) })
		treg.GaugeFunc("ensembler_privacy_clients", "Client accounts currently tracked by the ledger.",
			nil, func() float64 { return float64(privacyLedger.Stats().Clients) })
		treg.GaugeFunc("ensembler_privacy_observe", "1 when the budget policy only observes (no noise or refusals).",
			nil, func() float64 {
				if privacyGuard.Observing() {
					return 1
				}
				return 0
			})
		treg.GaugeFunc("ensembler_privacy_worst_drained", "Drained budget fraction of the most spent client account.",
			nil, func() float64 {
				if top := privacyLedger.TopSpenders(1); len(top) == 1 {
					return top[0].Drained
				}
				return 0
			})
		treg.CounterFunc("ensembler_privacy_rows_charged_total", "Served rows debited against client budgets.",
			nil, func() float64 { return float64(privacyLedger.Stats().Rows) })
		treg.CounterFunc("ensembler_privacy_evictions_total", "Client accounts evicted past the ledger's capacity bound.",
			nil, func() float64 { return float64(privacyLedger.Stats().Evictions) })
		treg.CounterFunc("ensembler_privacy_noised_total", "Requests served with escalation noise on the response.",
			nil, func() float64 { return float64(privacyGuard.Noised()) })
		treg.CounterFunc("ensembler_privacy_refusals_total", "Requests refused because the client's budget was exhausted.",
			nil, func() float64 { return float64(privacyGuard.Refusals()) })
	}
	if sm != nil {
		treg.GaugeFunc("ensembler_worker_utilization", "Fraction of worker-pool capacity spent serving since start.",
			nil, func() float64 {
				up := time.Since(startTime).Seconds()
				if up <= 0 {
					return 0
				}
				return sm.ServeSeconds.Sum() / (float64(srv.Workers()) * up)
			})
	}

	// The bound address line comes first and stands alone so scripts (and
	// tests using -addr :0) can scrape the actual port; the admin banner
	// follows in the same scrapeable shape.
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	var adminWait func() error
	if *adminAddr != "" {
		plane := &adminPlane{
			reg: reg, model: defaultModel, treg: treg, auditor: auditor,
			tracer: tracer, guard: privacyGuard, pprof: *pprofFlag,
			workers: srv.Workers(), shard: *shardSpec, start: startTime,
		}
		adminWait, err = serveAdmin(serveCtx, *adminAddr, plane, func(format string, args ...any) {
			fmt.Fprintf(stdout, format, args...)
		})
		if err != nil {
			return err
		}
	}
	auditBanner := ""
	if auditor != nil {
		auditBanner = fmt.Sprintf("; audit mirrors 1/%d of requests (threshold SSIM %.2f, report-only)", *auditSample, *auditThreshold)
	}
	privacyBanner := ""
	if privacyGuard != nil {
		mode := "enforced"
		if privacyGuard.Observing() {
			mode = "observe-only"
		}
		privacyBanner = fmt.Sprintf("; privacy budget %d rows per client (%s)", *privacyBudget, mode)
	}
	fmt.Fprintf(stdout, "%sserving %s v%d (%d bodies) as default — %d models total, %d workers, max batch %d, %s compute; selector stays client-side%s%s\n",
		shardBanner, defaultModel, cur.Version(), cur.Pipeline().Cfg.N, len(reg.Models()), srv.Workers(), *maxBatch, precision, auditBanner, privacyBanner)
	var fatalMu sync.Mutex
	var fatalErr error
	failServe := func(err error) {
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
			stopServe()
		}
		fatalMu.Unlock()
	}

	// SIGHUP: re-scan the registry directory and hot-swap anything newer.
	// Stop unregisters delivery before close, so the drained channel ends
	// the goroutine — run() must not leak one handler per invocation.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer func() {
		signal.Stop(hup)
		close(hup)
	}()
	go func() {
		for range hup {
			if *modelDir == "" {
				fmt.Fprintln(stdout, "reload: ignored (no -model-dir)")
				continue
			}
			// A shard refuses to swap in a model whose recorded fleet
			// layout disagrees with what this process serves: the check
			// runs against the store's latest version before LoadStore
			// installs anything.
			if checkShardLayout != nil {
				latest, err := reg.Store().Latest(defaultModel)
				if err != nil {
					fmt.Fprintf(stderr, "reload: %v\n", err)
					continue
				}
				if err := checkShardLayout(latest); err != nil {
					fmt.Fprintf(stderr, "reload: refused: %v\n", err)
					continue
				}
			}
			updated, err := reg.LoadStore()
			if err != nil {
				fmt.Fprintf(stderr, "reload: %v\n", err)
				continue
			}
			// Close the check-then-act window: a publish can land between
			// the pre-check above and LoadStore's own Latest read. If the
			// version now live disagrees with this shard's layout, stop
			// serving rather than serve the wrong body subset.
			if checkShardLayout != nil {
				cur, err := reg.Current(defaultModel)
				if err == nil {
					err = checkShardLayout(cur.Version())
				}
				if err != nil {
					failServe(fmt.Errorf("shard layout diverged after reload: %w", err))
					continue
				}
			}
			fmt.Fprintf(stdout, "reload: %d model(s) swapped in\n", updated)
		}
	}()

	if err := srv.Serve(serveCtx, ln); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	stopServe()
	if adminWait != nil {
		if err := adminWait(); err != nil {
			return fmt.Errorf("admin plane: %w", err)
		}
	}
	fatalMu.Lock()
	err = fatalErr
	fatalMu.Unlock()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "shutdown complete")
	return nil
}

// openRegistry builds the registry the server reads through, from either a
// single model file or a registry directory, failing with a descriptive
// error (never a panic) when the artifact is missing or corrupt.
func openRegistry(modelPath, modelDir, modelName string) (*registry.Registry, error) {
	switch {
	case modelDir != "" && modelPath != "":
		return nil, fmt.Errorf("-model and -model-dir are mutually exclusive")
	case modelDir != "":
		if _, err := os.Stat(modelDir); err != nil {
			return nil, fmt.Errorf("model directory %s is missing (train with ensembler-train -model-dir %s first): %w", modelDir, modelDir, err)
		}
		reg, err := registry.OpenDir(modelDir)
		if err != nil {
			return nil, err
		}
		if len(reg.Models()) == 0 {
			return nil, fmt.Errorf("model directory %s holds no published models", modelDir)
		}
		if modelName != "" {
			if err := reg.SetDefault(modelName); err != nil {
				return nil, err
			}
		}
		return reg, nil
	default:
		if modelPath == "" {
			modelPath = "ensembler.gob"
		}
		if _, err := os.Stat(modelPath); err != nil {
			return nil, fmt.Errorf("model file %s is missing (train with ensembler-train -out %s first): %w", modelPath, modelPath, err)
		}
		e, err := ensemble.LoadFile(modelPath)
		if err != nil {
			return nil, fmt.Errorf("loading model %s: %w", modelPath, err)
		}
		name := modelName
		if name == "" {
			name = "default"
		}
		reg := registry.New(nil)
		if _, err := reg.Publish(name, e); err != nil {
			return nil, err
		}
		return reg, nil
	}
}
