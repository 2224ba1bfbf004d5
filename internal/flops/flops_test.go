package flops

import (
	"math"
	"testing"
)

func TestResNet18Structure(t *testing.T) {
	s := ResNet18(32, 10, true)
	if s.HeadEnd == 0 || s.TailStart <= s.HeadEnd || s.TailStart >= len(s.Layers) {
		t.Fatalf("bad split markers: head=%d tail=%d len=%d", s.HeadEnd, s.TailStart, len(s.Layers))
	}
	// The paper's CIFAR-10 transmitted feature is [64,16,16] → 64 KiB of
	// float32 per image.
	if got := s.FeatureBytes(); got != 64*16*16*4 {
		t.Errorf("feature bytes = %v, want %v", got, 64*16*16*4)
	}
	if got := s.ServerReturnBytes(); got != 512*4 {
		t.Errorf("server return bytes = %v", got)
	}
}

func TestResNet18NoMaxPoolFeature(t *testing.T) {
	// CIFAR-100 variant (no max pool) transmits [64,32,32] — exactly the
	// paper's §IV-A statement that the intermediate grows to 64×32×32.
	s := ResNet18(32, 100, false)
	if got := s.FeatureBytes(); got != 64*32*32*4 {
		t.Errorf("feature bytes = %v, want %v", got, 64*32*32*4)
	}
}

func TestHeadIsSmallFractionOfTotal(t *testing.T) {
	s := ResNet18(32, 10, true)
	frac := s.HeadFLOPs() / total(s)
	// The premise of collaborative inference: the client's share is tiny.
	if frac > 0.05 {
		t.Errorf("head fraction = %.3f, expected < 5%%", frac)
	}
	if s.TailFLOPs() >= s.HeadFLOPs() {
		t.Error("the FC tail should be cheaper than the conv head")
	}
}

func TestSegmentsSumToTotal(t *testing.T) {
	for _, pool := range []bool{true, false} {
		s := ResNet18(32, 10, pool)
		sum := s.HeadFLOPs() + s.BodyFLOPs() + s.TailFLOPs()
		if math.Abs(sum-total(s)) > 1 {
			t.Errorf("pool=%v segments %.0f != total %.0f", pool, sum, total(s))
		}
	}
}

func TestConvFLOPsKnownValue(t *testing.T) {
	s := &Spec{}
	// 3×3 conv, 3→64 channels, 32×32 output: 2·27·64·1024 MACs + bias.
	s.conv("c", 3, 64, 3, 1, 1, 32, 32, true)
	want := 2*27.0*64*1024 + 64*1024
	if got := s.Layers[0].FLOPs; math.Abs(got-want) > 1 {
		t.Errorf("conv FLOPs = %v, want %v", got, want)
	}
}

func TestLargerInputCostsMore(t *testing.T) {
	small := total(ResNet18(32, 10, true))
	big := total(ResNet18(64, 10, true))
	if big <= small {
		t.Error("64px network must cost more than 32px")
	}
}

func TestResNet18TotalMagnitude(t *testing.T) {
	// Sanity: the 32px CIFAR ResNet-18 with stem pool should be a few
	// hundred MFLOPs per image.
	flops := total(ResNet18(32, 10, true))
	if flops < 1e8 || flops > 1e9 {
		t.Errorf("total FLOPs %.3g outside plausible range", flops)
	}
}

// total returns the whole network's compute per image.
func total(s *Spec) float64 { return s.segment(0, len(s.Layers)) }
