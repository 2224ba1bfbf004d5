package nn

import (
	"math"
	"testing"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// reluRef is the branchy rectifier tensor.ReLU replaced, kept as its
// reference: v where v > 0, else +0.
func reluRef[T tensor.Float](dst, src []T) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// TestReluSliceMatchesRef holds the branch-free rectifier to reluRef bit for
// bit at both precisions, over the specials where a select on the bits could
// go wrong — ±0, ±Inf, NaNs of either sign and any payload, the subnormal and
// normal extremes — and over seeded normal activations, in place and not.
func TestReluSliceMatchesRef(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
		1, -1, 0.5, -0.5,
	}
	live := make([]float64, 1000)
	rng.New(3).FillNormal(live, 0, 1)
	src := append(specials, live...)
	t.Run("f64", func(t *testing.T) { testReluSlice(t, src, math.Float64bits) })
	src32 := make([]float32, len(src))
	for i, v := range src {
		src32[i] = float32(v)
	}
	// float32 NaN payloads the conversion from float64 cannot reach.
	src32 = append(src32, math.Float32frombits(0x7F800001), math.Float32frombits(0xFFFFFFFF), math.Float32frombits(0x7FFFFFFF))
	t.Run("f32", func(t *testing.T) { testReluSlice(t, src32, math.Float32bits) })
}

func testReluSlice[T tensor.Float, B comparable](t *testing.T, src []T, bits func(T) B) {
	want := make([]T, len(src))
	reluRef(want, src)
	got := make([]T, len(src))
	tensor.ReLU(got, src)
	inPlace := append([]T(nil), src...)
	tensor.ReLU(inPlace, inPlace)
	for i := range src {
		if bits(got[i]) != bits(want[i]) || bits(inPlace[i]) != bits(want[i]) {
			t.Errorf("relu(%v) = %v (in place %v), reference %v", src[i], got[i], inPlace[i], want[i])
		}
	}
}
