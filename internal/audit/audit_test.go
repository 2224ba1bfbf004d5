package audit

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"ensembler/internal/attack"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/rng"
	"ensembler/internal/split"
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

// TestOracleAttackScoreEndToEnd pins the publish-time score bit for bit to
// the number ensembler-serve's in-server audit loop reported before the
// score moved to publish time: its first audit of this pipeline, under the
// same calibration set, attack and seed, read exactly these bits. The score
// is a property of the version, so a second call reads them again.
func TestOracleAttackScoreEndToEnd(t *testing.T) {
	e := commtest.Pipeline(commtest.TinyArch(), 4, 2, 77)
	got, err := Score(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != "oracle" || got.Seed != 1+7919 || got.Calibration != 64 {
		t.Errorf("score provenance = %+v, want the oracle at seed 7920 over 64 calibration images", got)
	}
	for _, c := range []struct {
		name string
		v    float64
		want uint64
	}{
		{"SSIM", got.SSIM, 0x3fc00c644aee013d},   // 0.12537816675831862
		{"PSNR", got.PSNR, 0x402b304cccf3c35d},   // 13.594335942035906
		{"floor", got.Floor, 0x3fc2ea54403742fe}, // 0.14777615676441508
	} {
		if bits := math.Float64bits(c.v); bits != c.want {
			t.Errorf("%s = %v (bits %#x), want bits %#x", c.name, c.v, bits, c.want)
		}
	}
	if again, err := Score(e); err != nil || again != got {
		t.Errorf("second score = %+v (%v), want %+v", again, err, got)
	}
}

// TestAuditFailureIsReportedNotFatal: a pipeline Score cannot measure is
// reported to the caller as an error, never a panic. The calibration images
// are synthetic RGB, so a pipeline with another input shape is refused,
// never scored on mis-shaped inputs.
func TestAuditFailureIsReportedNotFatal(t *testing.T) {
	e := &ensemble.Ensembler{Cfg: ensemble.Config{Arch: split.Arch{InC: 1, H: 8, W: 8}}}
	if _, err := Score(e); err == nil || !strings.Contains(err.Error(), "RGB") {
		t.Fatalf("Score of a 1-channel pipeline: %v, want an RGB error", err)
	}
}

// TestBreachIsReportedNotActed: scoring only reports. Whatever the score,
// Score leaves the pipeline it measured exactly as it was — same secret
// selector, same transmitted features, same predictions — so reacting to a
// breach (re-keying, retraining) stays the secret holder's move.
func TestBreachIsReportedNotActed(t *testing.T) {
	e := commtest.Pipeline(commtest.TinyArch(), 4, 2, 77)
	x := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 4, Aux: 4, Test: 4, Seed: 3}).Test.Images
	selector := append([]int(nil), e.Selector.Indices...)
	features := e.ClientFeatures(x).Clone()
	logits := e.Predict(x).Clone()

	leak, err := Score(e)
	if err != nil {
		t.Fatal(err)
	}
	if leak.Strategy != "oracle" || leak.SSIM == 0 {
		t.Errorf("score = %+v, want a reported oracle SSIM", leak)
	}
	if !slices.Equal(e.Selector.Indices, selector) {
		t.Errorf("selector = %v after scoring, want %v", e.Selector.Indices, selector)
	}
	for _, c := range []struct {
		name      string
		got, want *tensor.Tensor
	}{
		{"client features", e.ClientFeatures(x), features},
		{"predictions", e.Predict(x), logits},
	} {
		if !slices.Equal(c.got.Data, c.want.Data) {
			t.Errorf("%s changed by scoring", c.name)
		}
	}
}

func attackConfigTiny() attack.Config {
	return attack.Config{ShadowEpochs: 1, DecoderEpochs: 1, BatchSize: 8, Seed: 99}
}
