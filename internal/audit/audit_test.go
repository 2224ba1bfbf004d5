package audit

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ensembler/internal/attack"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/telemetry"
	"ensembler/internal/tensor"
)

func feat(rows int, seed int64) *tensor.Tensor {
	x := tensor.New(rows, 4, 8, 8)
	rng.New(seed).FillNormal(x.Data, 0, 1)
	return x
}

func TestSamplerReservoirBoundedAndCounted(t *testing.T) {
	s := NewSampler(2, 4, 1)
	for i := 0; i < 100; i++ {
		s.ObserveFeatures("m", 1, feat(1, int64(i)))
	}
	seen, sampled := s.Counts()
	if seen != 100 || sampled != 50 {
		t.Errorf("counts = (%d, %d), want (100, 50)", seen, sampled)
	}
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Errorf("reservoir holds %d, want cap 4", len(snap))
	}
	for _, smp := range snap {
		if smp.Model != "m" || smp.Version != 1 || smp.Features == nil {
			t.Errorf("bad sample %+v", smp)
		}
	}
	s.Reset()
	if len(s.Snapshot()) != 0 {
		t.Error("reset must empty the reservoir")
	}
	// Counts survive a reset (they are lifetime telemetry).
	if seen, _ := s.Counts(); seen != 100 {
		t.Errorf("seen = %d after reset, want 100", seen)
	}
}

func TestSamplerCopiesTensors(t *testing.T) {
	s := NewSampler(1, 2, 1)
	x := feat(1, 7)
	s.ObserveFeatures("m", 1, x)
	x.Data[0] = 12345 // the request mutating its tensor later must not leak in
	if got := s.Snapshot()[0].Features.Data[0]; got == 12345 {
		t.Error("sampler retained the request's tensor instead of a copy")
	}
}

// TestDisabledSamplerDoesNotAllocate pins the serving-path contract: a
// disabled sampler costs nothing, and an enabled sampler costs nothing on
// the observations it skips.
func TestDisabledSamplerDoesNotAllocate(t *testing.T) {
	x := feat(1, 3)
	disabled := NewSampler(0, 8, 1)
	if n := testing.AllocsPerRun(200, func() { disabled.ObserveFeatures("m", 1, x) }); n != 0 {
		t.Errorf("disabled sampler allocates %.1f objects per observation, want 0", n)
	}
	var nilSampler *Sampler
	if n := testing.AllocsPerRun(200, func() { nilSampler.ObserveFeatures("m", 1, x) }); n != 0 {
		t.Errorf("nil sampler allocates %.1f objects per observation, want 0", n)
	}
	skipping := NewSampler(1<<30, 8, 1)
	if n := testing.AllocsPerRun(200, func() { skipping.ObserveFeatures("m", 1, x) }); n != 0 {
		t.Errorf("skip path allocates %.1f objects per observation, want 0", n)
	}
}

// TestSamplerConcurrent exercises the reservoir under 8 concurrent
// observers with -race.
func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(1, 16, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.ObserveFeatures("m", 1, feat(1, int64(w*1000+i)))
				if i%50 == 0 {
					s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	seen, sampled := s.Counts()
	if seen != 1600 || sampled != 1600 {
		t.Errorf("counts = (%d, %d), want (1600, 1600)", seen, sampled)
	}
	if len(s.Snapshot()) != 16 {
		t.Errorf("reservoir holds %d, want 16", len(s.Snapshot()))
	}
}

func TestStackObserved(t *testing.T) {
	samples := []Sample{
		{Model: "m", Features: feat(2, 1)},
		{Model: "m", Features: feat(3, 2)},
		{Model: "other", Features: feat(8, 3)},             // different model: dropped
		{Model: "m", Features: tensor.New(1, 2, 2, 2)},     // minority shape: dropped
		{Model: "", Features: feat(1, 4)},                  // single-model server: kept
		{Model: "m", Features: nil},                        // defensive
		{Model: "m", Features: &tensor.Tensor{Shape: nil}}, // defensive
	}
	out := stackObserved(samples, "m", 100)
	if out == nil || out.Shape[0] != 6 {
		t.Fatalf("stacked shape = %v, want [6 4 8 8]", out)
	}
	capped := stackObserved(samples, "m", 4)
	if capped.Shape[0] != 4 {
		t.Errorf("cap ignored: %v rows", capped.Shape[0])
	}
	if stackObserved(nil, "m", 10) != nil {
		t.Error("empty sample set must stack to nil")
	}
}

func TestCalibrationFloor(t *testing.T) {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 8, Test: 32, Seed: 5})
	floor := CalibrationFloor(sp.Test, 16)
	if floor <= -1 || floor >= 0.9 {
		t.Errorf("floor = %.3f, want a value clearly below perfect reconstruction", floor)
	}
	// A constant dataset's mean image is a perfect reconstruction: floor 1.
	one := sp.Test.Image(0)
	flat := tensor.New(4, one.Shape[0], one.Shape[1], one.Shape[2])
	for i := 0; i < 4; i++ {
		copy(flat.Data[i*one.Size():], one.Data)
	}
	constant := &data.Dataset{Name: "const", Images: flat, Labels: []int{0, 0, 0, 0}, Classes: 1}
	if got := CalibrationFloor(constant, 0); got < 0.999 {
		t.Errorf("constant-set floor = %.3f, want 1", got)
	}
}

// auditFixture wires an auditor over a published tiny pipeline with a stub
// scorer the test scripts, returning the auditor and the registry it reads.
func auditFixture(t *testing.T, cfg Config, scores *[]float64) (*Auditor, *registry.Registry) {
	t.Helper()
	reg := registry.New(nil)
	if _, err := reg.Publish("m", commtest.Pipeline(commtest.TinyArch(), 4, 2, 21)); err != nil {
		t.Fatal(err)
	}
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 16, Test: 16, Seed: 6})
	cfg.Registry = reg
	cfg.Model = "m"
	cfg.Aux, cfg.Eval = sp.Aux, sp.Test
	cfg.EvalSamples = 8
	if cfg.Scorer == nil {
		cfg.Scorer = func(*registry.Epoch, *tensor.Tensor) (float64, float64, error) {
			s := (*scores)[0]
			if len(*scores) > 1 {
				*scores = (*scores)[1:]
			}
			return s, 10, nil
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, reg
}

// TestBreachIsReportedNotActed: the auditor is a gauge. Audits far above
// the threshold fold into the rolling leakage and are reported, and the
// audited model stays on the version it was published at — acting on the
// evidence is the secret holder's move, not the auditor's.
func TestBreachIsReportedNotActed(t *testing.T) {
	scores := []float64{0.9, 0.5}
	a, reg := auditFixture(t, Config{Threshold: 0.3}, &scores)
	for i := 0; i < 4; i++ {
		a.RunOnce()
	}
	st := a.State()
	// EWMA at the default Alpha 0.5: 0.9, then 0.7, 0.6, 0.55.
	if st.Audits != 4 || math.Abs(st.Leakage-0.55) > 1e-12 || st.Leakage <= st.Threshold {
		t.Fatalf("state after 4 breaching audits = %+v, want 4 audits, leakage 0.55 above 0.3", st)
	}
	if ep, err := reg.Current("m"); err != nil || ep.Version() != 1 {
		t.Fatalf("audited model moved to %v (%v), want v1", ep.Version(), err)
	}
}

func TestAuditSkipsWithoutTraffic(t *testing.T) {
	scores := []float64{0.9}
	s := NewSampler(1, 8, 1)
	a, _ := auditFixture(t, Config{
		Threshold:  0.3,
		Sampler:    s,
		MinSamples: 4,
		Alpha:      1,
	}, &scores)
	st := a.RunOnce()
	if st.Skipped != 1 || st.Audits != 0 {
		t.Fatalf("audit without traffic: %+v, want skipped", st)
	}
	for i := 0; i < 4; i++ {
		s.ObserveFeatures("m", 1, feat(1, int64(i)))
	}
	st = a.RunOnce()
	if st.Audits != 1 || st.Leakage != 0.9 {
		t.Fatalf("audit with traffic must run and report: %+v", st)
	}
	// The reservoir was consumed: the next tick skips again.
	if st := a.RunOnce(); st.Skipped != 2 {
		t.Fatalf("reservoir must be consumed by the audit: %+v", st)
	}
}

func TestAuditFailureIsReportedNotFatal(t *testing.T) {
	scores := []float64{0.9}
	a, _ := auditFixture(t, Config{
		Threshold: 0.3,
		Alpha:     1,
		Scorer: func(*registry.Epoch, *tensor.Tensor) (float64, float64, error) {
			panic("shape surprise")
		},
	}, &scores)
	st := a.RunOnce()
	if st.Failures != 1 || !strings.Contains(st.LastErr, "shape surprise") {
		t.Fatalf("panicking scorer must fail the audit: %+v", st)
	}
}

// TestOracleAttackScoreEndToEnd runs the real scorer (oracle mode) against
// a published pipeline: the audit must complete, score within SSIM range,
// and land above the nothing-extracted floor minus noise.
func TestOracleAttackScoreEndToEnd(t *testing.T) {
	reg := registry.New(nil)
	if _, err := reg.Publish("m", commtest.Pipeline(commtest.TinyArch(), 4, 2, 23)); err != nil {
		t.Fatal(err)
	}
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 32, Test: 16, Seed: 8})
	a, err := New(Config{
		Registry:    reg,
		Model:       "m",
		Aux:         sp.Aux,
		Eval:        sp.Test,
		EvalSamples: 8,
		Oracle:      true,
		Attack:      attackConfigTiny(),
		Threshold:   0.99, // this test is about scoring, not the alert
	})
	if err != nil {
		t.Fatal(err)
	}
	st := a.RunOnce()
	if st.LastErr != "" {
		t.Fatalf("oracle audit failed: %s", st.LastErr)
	}
	if st.Audits != 1 {
		t.Fatalf("audits = %d, want 1", st.Audits)
	}
	if st.LastSSIM < -1 || st.LastSSIM > 1 {
		t.Fatalf("SSIM %v out of range", st.LastSSIM)
	}
	if st.Leakage != st.LastSSIM {
		t.Errorf("first audit must seed the EWMA: leakage %v vs ssim %v", st.Leakage, st.LastSSIM)
	}
}

// TestShadowAttackScoreUsesObserved runs the real query-free scorer with
// mirrored features feeding the alignment term.
func TestShadowAttackScoreUsesObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a shadow network")
	}
	reg := registry.New(nil)
	pipe := commtest.Pipeline(commtest.TinyArch(), 2, 1, 29)
	if _, err := reg.Publish("m", pipe); err != nil {
		t.Fatal(err)
	}
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 24, Test: 8, Seed: 9})
	// TinyArch classifies 4 ways; fold the 10-class labels into range so the
	// shadow's classification loss is well-formed.
	for _, ds := range []*data.Dataset{sp.Aux, sp.Test} {
		for i, l := range ds.Labels {
			ds.Labels[i] = l % 4
		}
	}
	s := NewSampler(1, 8, 1)
	// Mirror what a client would really transmit.
	rt := pipe.NewClientRuntime()
	for i := 0; i < 4; i++ {
		x, _ := sp.Test.Batch([]int{i})
		s.ObserveFeatures("m", 1, rt.Features(x))
	}
	a, err := New(Config{
		Registry:    reg,
		Model:       "m",
		Sampler:     s,
		MinSamples:  2,
		Aux:         sp.Aux,
		Eval:        sp.Test,
		EvalSamples: 4,
		Attack:      attackConfigTiny(),
		Threshold:   0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := a.RunOnce()
	if st.LastErr != "" {
		t.Fatalf("shadow audit failed: %s", st.LastErr)
	}
	if st.Audits != 1 {
		t.Fatalf("audits = %d, want 1", st.Audits)
	}
}

func TestRegisterMetricsExportsLeakage(t *testing.T) {
	scores := []float64{0.42}
	s := NewSampler(1, 8, 1)
	a, _ := auditFixture(t, Config{Threshold: 0.99, Alpha: 1, Sampler: s}, &scores)
	s.ObserveFeatures("m", 1, feat(1, 1))
	a.RunOnce()
	treg := telemetry.NewRegistry()
	a.RegisterMetrics(treg)
	var b strings.Builder
	if err := treg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ensembler_audit_leakage 0.42",
		"ensembler_audit_runs_total 1",
		"ensembler_audit_features_sampled_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 4, Aux: 4, Test: 4, Seed: 4})
	reg := registry.New(nil)
	cases := []Config{
		{},                           // no registry
		{Registry: reg},              // no datasets
		{Registry: reg, Aux: sp.Aux}, // no eval
		{Registry: reg, Aux: sp.Aux, Eval: sp.Test}, // no threshold
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted an invalid config", i, cfg)
		}
	}
}

func attackConfigTiny() attack.Config {
	return attack.Config{ShadowEpochs: 1, DecoderEpochs: 1, BatchSize: 8, Seed: 99}
}

// TestAuditorReportsWorstDrainedClient pins the ledger integration: a
// /leakage snapshot reports the most drained client account next to the
// attack-replay bound, and RegisterMetrics exports the drained fraction.
func TestAuditorReportsWorstDrainedClient(t *testing.T) {
	ledger, err := privacy.NewLedger(privacy.LedgerConfig{BudgetRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := privacy.NewGuard(ledger, privacy.PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	guard.Charge(guard.AccountFor("light"), 1)
	heavy := guard.AccountFor("did:ex:heavy")
	for i := 0; i < 7; i++ {
		guard.Charge(heavy, 1)
	}

	scores := []float64{0.1}
	a, _ := auditFixture(t, Config{Threshold: 0.3, Ledger: ledger}, &scores)
	st := a.State()
	if st.BudgetClients != 2 {
		t.Errorf("budget clients = %d, want 2", st.BudgetClients)
	}
	if st.WorstClient != "did:ex:heavy" || st.WorstClientSpent != 7 {
		t.Errorf("worst client = %q at %d rows, want the heavy account at 7", st.WorstClient, st.WorstClientSpent)
	}
	if st.WorstClientDrained < 0.69 || st.WorstClientDrained > 0.71 {
		t.Errorf("worst drained = %v, want 0.7", st.WorstClientDrained)
	}
	if st.WorstClientLevel != privacy.LevelNoise {
		t.Errorf("worst level = %d, want LevelNoise", st.WorstClientLevel)
	}

	treg := telemetry.NewRegistry()
	a.RegisterMetrics(treg)
	var b strings.Builder
	if err := treg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ensembler_audit_worst_client_drained 0.7") {
		t.Errorf("metrics lack the worst-drained gauge:\n%s", b.String())
	}

	// Without a ledger the budget fields stay zero and the gauge is absent.
	scores = []float64{0.1}
	plain, _ := auditFixture(t, Config{Threshold: 0.3}, &scores)
	if st := plain.State(); st.WorstClient != "" || st.BudgetClients != 0 {
		t.Errorf("ledger-less state carries budget fields: %+v", st)
	}
}

// TestShadowReplayGetsPrivateBodies pins why the replay clones: the shadow
// attack runs the caching Forward over the bodies it is handed, while the
// epoch's own bodies are the ones every server worker reads. attackScore must
// hand it copies with the epoch's weights, never the epoch's networks.
func TestShadowReplayGetsPrivateBodies(t *testing.T) {
	reg := registry.New(nil)
	ep, err := reg.Publish("m", commtest.Pipeline(commtest.TinyArch(), 3, 1, 41))
	if err != nil {
		t.Fatal(err)
	}
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 8, Test: 8, Seed: 42})
	a, err := New(Config{Registry: reg, Model: "m", Aux: sp.Aux, Eval: sp.Test, Attack: attackConfigTiny(), Threshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	var got []*nn.Network
	defer func(orig func(attack.Config, string, []*nn.Network, bool, attack.Victim, *data.Dataset, *data.Dataset, int) attack.Outcome) {
		decoderAttack = orig
	}(decoderAttack)
	decoderAttack = func(_ attack.Config, _ string, bodies []*nn.Network, _ bool, _ attack.Victim, _, _ *data.Dataset, _ int) attack.Outcome {
		got = bodies
		return attack.Outcome{}
	}
	if _, _, err := a.attackScore(ep, nil); err != nil {
		t.Fatal(err)
	}
	own := ep.Bodies()
	if len(got) != len(own) {
		t.Fatalf("replay got %d bodies, want %d", len(got), len(own))
	}
	x := feat(2, 43)
	for i, b := range got {
		if b == own[i] {
			t.Fatalf("replay body %d is the epoch's own network", i)
		}
		if !b.Forward(x, false).AllClose(own[i].Forward(x, false), 0) {
			t.Errorf("replay body %d does not carry the epoch's weights", i)
		}
	}
}
