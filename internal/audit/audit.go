package audit

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"ensembler/internal/attack"
	"ensembler/internal/data"
	"ensembler/internal/metrics"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
)

// Scorer measures the leakage of one epoch: it mounts an inversion attack
// against the published pipeline and returns the reconstruction quality
// (SSIM, PSNR) on the calibration set. observed carries the mirrored live
// features (nil when sampling is disabled); production uses the built-in
// attack-replay scorer, tests substitute deterministic ones.
type Scorer func(ep *registry.Epoch, observed *tensor.Tensor) (ssim, psnr float64, err error)

// Config parameterizes the audit engine.
type Config struct {
	// Registry resolves the audited model; Model names it ("" = default).
	Registry *registry.Registry
	Model    string

	// Sampler supplies mirrored live features. Optional: without one the
	// auditor still replays attacks on the calibration set alone, but
	// MinSamples gating and the alignment term are lost.
	Sampler *Sampler
	// MinSamples gates each audit on evidence of live traffic: fewer
	// mirrored tensors than this in the reservoir and the tick is skipped
	// (ignored when Sampler is nil).
	MinSamples int
	// MaxObserved caps the rows stacked into the attack's alignment tensor
	// (default 256) — the audit must hold bounded memory no matter how large
	// the mirrored batches are.
	MaxObserved int

	// Interval is the audit cadence for Run (default 1m).
	Interval time.Duration

	// Attack configures the replayed inversion (epochs, batch, seed…); its
	// Arch is overwritten from the audited pipeline. Small values keep the
	// audit cheap — it shares the box with serving.
	Attack attack.Config
	// Aux and Eval are the calibration datasets: Aux plays the attacker's
	// auxiliary data, Eval the victim inputs whose reconstructions are
	// scored. EvalSamples bounds how many eval images are scored (0 = all).
	Aux, Eval   *data.Dataset
	EvalSamples int
	// Oracle selects the worst-case audit: the decoder trains directly on
	// the pipeline's true transmitted features (attack.OracleDecoderAttack),
	// an upper bound no query-free attacker reaches but the right
	// conservative posture for an alert. False replays the
	// query-free shadow attack, with the mirrored live features feeding its
	// feature-statistics alignment term — the realistic bound.
	Oracle bool

	// Threshold is the reported alert level: the SSIM above which the
	// rolling leakage deserves the secret holder's attention. Pick it above
	// the calibration floor (Floor / CalibrationFloor) by a margin that
	// reflects how much reconstruction quality the deployment tolerates.
	// The auditor only reports; acting on a breach (re-keying and
	// publishing a new selection) is the secret holder's move.
	Threshold float64
	// Alpha is the EWMA weight of the newest score (default 0.5).
	Alpha float64

	// Ledger, when non-nil, is the serving layer's per-client privacy-budget
	// ledger. Each State snapshot then reports the most drained client
	// account, so /leakage shows the worst-case adversary (the replayed
	// attack's reconstruction quality) next to the worst-drained tenant (how
	// many rows one identity has pulled).
	Ledger *privacy.Ledger

	// Scorer overrides the attack replay (tests). nil uses the real one.
	Scorer Scorer
	// Log receives one line per audit (optional).
	Log io.Writer
	// Now overrides the clock (tests). nil uses time.Now.
	Now func() time.Time
}

// State is one snapshot of the audit engine, shaped for the /leakage
// endpoint.
type State struct {
	Model     string  `json:"model"`
	Enabled   bool    `json:"enabled"`
	Oracle    bool    `json:"oracle"`
	Threshold float64 `json:"threshold"`
	Floor     float64 `json:"floor"`

	Audits   uint64    `json:"audits"`
	Failures uint64    `json:"failures"`
	Skipped  uint64    `json:"skipped"`
	LastRun  time.Time `json:"last_run"`
	LastErr  string    `json:"last_error,omitempty"`

	LastSSIM float64 `json:"last_ssim"`
	LastPSNR float64 `json:"last_psnr"`
	Leakage  float64 `json:"leakage"` // rolling EWMA of SSIM

	FeaturesSeen    uint64 `json:"features_seen"`
	FeaturesSampled uint64 `json:"features_sampled"`

	// Privacy-budget view, populated only when a ledger is attached: the
	// most drained client account at snapshot time. The attack replay above
	// bounds what any adversary could reconstruct; this bounds what the
	// thirstiest identified client has actually been served, in rows.
	BudgetClients      int     `json:"budget_clients,omitempty"`
	WorstClient        string  `json:"worst_client,omitempty"`
	WorstClientSpent   int64   `json:"worst_client_spent_rows,omitempty"`
	WorstClientDrained float64 `json:"worst_client_drained,omitempty"`
	WorstClientLevel   int     `json:"worst_client_level,omitempty"`
}

// Auditor runs the leakage audit loop. Construct with New; drive with Run
// (background cadence) or RunOnce (one audit, synchronous — tests and the
// example use this for determinism).
type Auditor struct {
	cfg   Config
	now   func() time.Time
	score Scorer

	mu    sync.Mutex
	state State
}

// New validates the configuration and computes the calibration floor.
func New(cfg Config) (*Auditor, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("audit: config needs a registry")
	}
	if cfg.Eval == nil || cfg.Aux == nil {
		return nil, fmt.Errorf("audit: config needs calibration datasets (Aux and Eval)")
	}
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("audit: leakage threshold must be positive, got %v", cfg.Threshold)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.5
	}
	if cfg.MaxObserved <= 0 {
		cfg.MaxObserved = 256
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 1
	}
	a := &Auditor{cfg: cfg, now: cfg.Now, score: cfg.Scorer}
	if a.now == nil {
		a.now = time.Now
	}
	if a.score == nil {
		a.score = a.attackScore
	}
	a.state = State{
		Model:     cfg.Model,
		Enabled:   true,
		Oracle:    cfg.Oracle,
		Threshold: cfg.Threshold,
		Floor:     CalibrationFloor(cfg.Eval, cfg.EvalSamples),
	}
	return a, nil
}

// State returns a snapshot of the audit engine.
func (a *Auditor) State() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state
	st.FeaturesSeen, st.FeaturesSampled = a.cfg.Sampler.Counts()
	if l := a.cfg.Ledger; l != nil {
		st.BudgetClients = l.Stats().Clients
		if top := l.TopSpenders(1); len(top) == 1 {
			st.WorstClient = top[0].Client
			st.WorstClientSpent = top[0].Spent
			st.WorstClientDrained = top[0].Drained
			st.WorstClientLevel = top[0].Level
		}
	}
	return st
}

// Run audits on the configured cadence until ctx is cancelled. Each tick is
// synchronous — a slow attack replay simply delays the next audit rather
// than stacking up.
func (a *Auditor) Run(ctx context.Context) {
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.RunOnce()
		}
	}
}

// RunOnce performs one audit: snapshot the mirrored features, replay the
// attack against the current epoch, and fold the score into the rolling
// leakage gauge. It returns the post-audit state; an audit that was skipped
// (not enough sampled traffic) or failed (attack error) is reported in the
// state rather than returned as an error — the loop must keep running
// either way.
func (a *Auditor) RunOnce() State {
	now := a.now()
	samples := a.cfg.Sampler.Snapshot()
	if a.cfg.Sampler.Enabled() && len(samples) < a.cfg.MinSamples {
		a.mu.Lock()
		a.state.Skipped++
		a.state.LastRun = now
		a.mu.Unlock()
		a.logf("audit: skipped (%d/%d sampled features)", len(samples), a.cfg.MinSamples)
		return a.State()
	}
	ep, err := a.cfg.Registry.Epoch(a.cfg.Model, 0)
	if err != nil {
		return a.fail(now, fmt.Errorf("resolving audited model: %w", err))
	}
	observed := stackObserved(samples, ep.Name(), a.cfg.MaxObserved)
	ssim, psnr, err := a.safeScore(ep, observed)
	if err != nil {
		return a.fail(now, err)
	}
	a.cfg.Sampler.Reset()

	a.mu.Lock()
	st := &a.state
	st.Audits++
	st.LastRun = now
	st.LastErr = ""
	st.LastSSIM, st.LastPSNR = ssim, psnr
	if st.Audits == 1 {
		st.Leakage = ssim
	} else {
		st.Leakage = a.cfg.Alpha*ssim + (1-a.cfg.Alpha)*st.Leakage
	}
	leak, floor := st.Leakage, st.Floor
	a.mu.Unlock()

	a.logf("audit: ssim %.3f psnr %.2f leakage %.3f (floor %.3f, threshold %.3f)",
		ssim, psnr, leak, floor, a.cfg.Threshold)
	return a.State()
}

// fail records a failed audit.
func (a *Auditor) fail(now time.Time, err error) State {
	a.cfg.Sampler.Reset()
	a.mu.Lock()
	a.state.Failures++
	a.state.LastRun = now
	a.state.LastErr = err.Error()
	a.mu.Unlock()
	a.logf("audit: failed: %v", err)
	return a.State()
}

func (a *Auditor) logf(format string, args ...any) {
	if a.cfg.Log != nil {
		fmt.Fprintf(a.cfg.Log, format+"\n", args...)
	}
}

// safeScore runs the scorer, converting a panic (the attack stack panics on
// shape surprises) into a failed audit instead of a dead serving process.
func (a *Auditor) safeScore(ep *registry.Epoch, observed *tensor.Tensor) (ssim, psnr float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ssim, psnr, err = 0, 0, fmt.Errorf("audit: attack replay panicked: %v", r)
		}
	}()
	return a.score(ep, observed)
}

// runtimeVictim adapts a cloned client runtime to attack.Victim. The clone
// matters: the epoch's own head/noise networks cache forward state and are
// shared with anything else reading the pipeline, while the clone is private
// to this audit run.
type runtimeVictim struct {
	features func(x *tensor.Tensor) *tensor.Tensor
}

// ClientFeatures clones: the attack keeps the features it observes, and a
// runtime's result only lives until its next Features call.
func (v runtimeVictim) ClientFeatures(x *tensor.Tensor) *tensor.Tensor { return v.features(x).Clone() }

// decoderAttack is the shadow replay attackScore runs; tests substitute one
// that inspects what it is handed.
var decoderAttack = attack.RunDecoderAttack

// attackScore is the production scorer: replay the decoder attack against
// the epoch and score reconstructions on the calibration eval set.
func (a *Auditor) attackScore(ep *registry.Epoch, observed *tensor.Tensor) (float64, float64, error) {
	pipe := ep.Pipeline()
	victim := runtimeVictim{features: pipe.NewClientRuntime().Features}
	cfg := a.cfg.Attack
	cfg.Arch = pipe.Cfg.Arch
	var out attack.Outcome
	if a.cfg.Oracle {
		out = attack.OracleDecoderAttack(cfg, victim, a.cfg.Aux, a.cfg.Eval, a.cfg.EvalSamples)
	} else {
		if observed != nil && cfg.AlignWeight == 0 {
			cfg.AlignWeight = 1
		}
		cfg.Observed = observed
		// The replay gets private clones: the shadow attack runs the caching
		// Forward over the bodies, and the epoch's own bodies are the ones
		// every server worker is reading.
		out = decoderAttack(cfg, "audit", pipe.CloneBodies(), false, victim, a.cfg.Aux, a.cfg.Eval, a.cfg.EvalSamples)
	}
	return out.SSIM, out.PSNR, nil
}

// stackObserved concatenates mirrored samples of the audited model into one
// [ΣB,C,H,W] tensor for the attack's alignment term, keeping only the
// majority feature shape (a multi-model server mirrors every model's
// traffic through one sampler) and at most maxRows rows. Returns nil when
// nothing usable was mirrored.
func stackObserved(samples []Sample, model string, maxRows int) *tensor.Tensor {
	type key [3]int
	groups := map[key][]*tensor.Tensor{}
	rows := map[key]int{}
	for _, s := range samples {
		if s.Model != model && s.Model != "" {
			continue
		}
		f := s.Features
		if f == nil || len(f.Shape) != 4 {
			continue
		}
		k := key{f.Shape[1], f.Shape[2], f.Shape[3]}
		groups[k] = append(groups[k], f)
		rows[k] += f.Shape[0]
	}
	var best key
	bestRows := 0
	for k, n := range rows {
		if n > bestRows {
			best, bestRows = k, n
		}
	}
	if bestRows == 0 {
		return nil
	}
	if bestRows > maxRows {
		bestRows = maxRows
	}
	out := tensor.New(bestRows, best[0], best[1], best[2])
	per := best[0] * best[1] * best[2]
	off := 0
	for _, f := range groups[best] {
		n := copy(out.Data[off:], f.Data)
		off += n
		if off >= bestRows*per {
			break
		}
	}
	return out
}

// CalibrationFloor is the SSIM of the best input-independent reconstruction
// of the eval set: every image "reconstructed" as the set's mean image. An
// attack scoring at or below this floor has extracted nothing from the
// transmitted features; thresholds should sit above it by a deliberate
// margin. n bounds how many eval images enter the floor (0 = all),
// mirroring the EvalSamples bound of the scored attack.
func CalibrationFloor(eval *data.Dataset, n int) float64 {
	if n <= 0 || n > eval.Len() {
		n = eval.Len()
	}
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	x, _ := eval.Batch(idxs)
	mean := attack.MeanFeatureMap(x)
	recon := tensor.New(x.Shape...)
	per := mean.Size()
	for i := 0; i < n; i++ {
		copy(recon.Data[i*per:(i+1)*per], mean.Data)
	}
	return metrics.BatchSSIM(recon, x)
}

// RegisterMetrics exports the audit engine into a telemetry registry under
// the ensembler_audit_* namespace; everything is computed at scrape time
// from the state snapshot.
func (a *Auditor) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("ensembler_audit_leakage",
		"Rolling (EWMA) SSIM of the audit's attack reconstructions.",
		nil, func() float64 { return a.State().Leakage })
	reg.GaugeFunc("ensembler_audit_last_ssim",
		"SSIM of the most recent audit's reconstruction.",
		nil, func() float64 { return a.State().LastSSIM })
	reg.GaugeFunc("ensembler_audit_floor",
		"Calibration floor: SSIM of the best input-independent reconstruction.",
		nil, func() float64 { return a.State().Floor })
	reg.GaugeFunc("ensembler_audit_threshold",
		"Reported leakage alert level.",
		nil, func() float64 { return a.State().Threshold })
	reg.CounterFunc("ensembler_audit_runs_total",
		"Completed audits.",
		nil, func() float64 { return float64(a.State().Audits) })
	reg.CounterFunc("ensembler_audit_failures_total",
		"Audits that failed (attack error or unresolvable model).",
		nil, func() float64 { return float64(a.State().Failures) })
	reg.CounterFunc("ensembler_audit_features_seen_total",
		"Feature tensors observed by the sampler on the serving path.",
		nil, func() float64 { seen, _ := a.cfg.Sampler.Counts(); return float64(seen) })
	reg.CounterFunc("ensembler_audit_features_sampled_total",
		"Feature tensors mirrored into the audit reservoir.",
		nil, func() float64 { _, sampled := a.cfg.Sampler.Counts(); return float64(sampled) })
	if a.cfg.Ledger != nil {
		reg.GaugeFunc("ensembler_audit_worst_client_drained",
			"Drained budget fraction of the ledger's most spent client account.",
			nil, func() float64 { return a.State().WorstClientDrained })
	}
}
