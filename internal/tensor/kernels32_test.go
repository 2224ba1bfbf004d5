package tensor

import (
	"math"
	"testing"
)

func fill32(t *Tensor32, seed int64) {
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := range t.Data {
		s = s*2862933555777941757 + 3037000493
		t.Data[i] = float32(int32(s>>33))/float32(1<<31) - 0.5
	}
}

// TestMatMulInto32MatchesF64 bounds the f32 matmul against the f64 kernel on
// the same values: every element within 1e-5 relative of the float64 result.
func TestMatMulInto32MatchesF64(t *testing.T) {
	const m, k, n = 7, 71, 65 // off-size dims exercise the k-unroll and panel tails
	a32, b32, dst32 := NewOf[float32](m, k), NewOf[float32](k, n), NewOf[float32](m, n)
	fill32(a32, 1)
	fill32(b32, 2)
	MatMulInto32(dst32, a32, b32)

	a64, b64 := New(m, k), New(k, n)
	for i, v := range a32.Data {
		a64.Data[i] = float64(v)
	}
	for i, v := range b32.Data {
		b64.Data[i] = float64(v)
	}
	want := MatMulInto(New(m, n), a64, b64)
	for i, v := range dst32.Data {
		if e := math.Abs(float64(v)-want.Data[i]) / math.Max(1, math.Abs(want.Data[i])); e > 1e-5 {
			t.Fatalf("element %d drifts %.3g relative (f32 %v vs f64 %v)", i, e, v, want.Data[i])
		}
	}
}

// benchmark shapes drawn from the serving bodies' im2col matmuls:
// weight [OC, C*KH*KW] × cols [C*KH*KW, OH*OW].
const bm, bk, bn = 8, 36, 16

func BenchmarkMatMulInto(b *testing.B) {
	a, x, dst := New(bm, bk), New(bk, bn), New(bm, bn)
	for i := range a.Data {
		a.Data[i] = float64(i%13) - 6
	}
	for i := range x.Data {
		x.Data[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, x)
	}
}

func BenchmarkMatMulInto32(b *testing.B) {
	a, x, dst := NewOf[float32](bm, bk), NewOf[float32](bk, bn), NewOf[float32](bm, bn)
	for i := range a.Data {
		a.Data[i] = float32(i%13) - 6
	}
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto32(dst, a, x)
	}
}

// The stride-2 blocks shrink the im2col panel to oh*ow = 4 (and 1 at the
// last block). Panels this narrow are where a call-per-k-row kernel loses to
// the f64 inline loop — the k-unrolled kernel must stay ahead here too.
func BenchmarkMatMulInto32TinyPanel(b *testing.B) {
	const m, k, n = 16, 144, 4
	a, x, dst := NewOf[float32](m, k), NewOf[float32](k, n), NewOf[float32](m, n)
	fill32(a, 3)
	fill32(x, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto32(dst, a, x)
	}
}

func BenchmarkMatMulIntoTinyPanel(b *testing.B) {
	const m, k, n = 16, 144, 4
	a, x, dst := New(m, k), New(k, n), New(m, n)
	a32, x32 := NewOf[float32](m, k), NewOf[float32](k, n)
	fill32(a32, 3)
	fill32(x32, 4)
	for i, v := range a32.Data {
		a.Data[i] = float64(v)
	}
	for i, v := range x32.Data {
		x.Data[i] = float64(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, x)
	}
}

// tileOperands returns a filler for the tile tests' operands: about a
// quarter drawn from specials, the rest spread over [-4, 4), from a fixed
// seed.
func tileOperands[T float32 | float64](seed uint64, specials []T) func([]T) []T {
	s := seed
	return func(v []T) []T {
		for i := range v {
			s = s*2862933555777941757 + 3037000493
			if s>>60 < 4 {
				v[i] = specials[(s>>33)%uint64(len(specials))]
			} else {
				v[i] = T(int32(s>>33))/T(1<<28) - 4
			}
		}
		return v
	}
}

// TestTile2x4F32MatchesGo pins the f32 panel's SIMD tile to its portable
// form bit for bit: zero, negative-zero, subnormal, huge and infinite
// operands (so 0·Inf and Inf−Inf make NaNs, and large products overflow)
// over every step count up to 17, at b row strides of 4, 5 and 9, from a
// tile that already holds values. Where the tile is the portable form
// (every GOARCH but amd64) the test compares it with itself.
func TestTile2x4F32MatchesGo(t *testing.T) {
	fill := tileOperands(7, []float32{0, float32(math.Copysign(0, -1)), 1e-40, -3e-39, 3e38, -2e38, float32(math.Inf(1)), float32(math.Inf(-1))})
	for _, n := range []int{4, 5, 9} {
		for steps := 0; steps <= 17; steps++ {
			for trial := 0; trial < 8; trial++ {
				a0, a1 := fill(make([]float32, 4*steps)), fill(make([]float32, 4*steps))
				b := fill(make([]float32, max(4*steps*n, 4)))
				var start [8]float32
				fill(start[:])
				got, want := start, start
				tile2x4F32(&got, a0, a1, b, n, steps)
				tile2x4F32Go(&want, a0, a1, b, n, steps)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d steps=%d trial %d: c[%d] = %v (%#x), portable tile %v (%#x)",
							n, steps, trial, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestTile4x1F32MatchesGo pins the f32 panel's SIMD column tile to its
// portable form bit for bit, with the operands of TestTile2x4F32MatchesGo,
// over every step count up to 17 at b row strides of 1 (the n = 1 panels),
// 3, 5 and 9.
func TestTile4x1F32MatchesGo(t *testing.T) {
	fill := tileOperands(13, []float32{0, float32(math.Copysign(0, -1)), 1e-40, -3e-39, 3e38, -2e38, float32(math.Inf(1)), float32(math.Inf(-1))})
	for _, n := range []int{1, 3, 5, 9} {
		for steps := 0; steps <= 17; steps++ {
			for trial := 0; trial < 8; trial++ {
				var a [4][]float32
				for r := range a {
					a[r] = fill(make([]float32, 4*steps))
				}
				b := fill(make([]float32, max(4*steps*n, 1)))
				var start [4]float32
				fill(start[:])
				got, want := start, start
				tile4x1F32(&got, &a, b, n, steps)
				tile4x1F32Go(&want, &a, b, n, steps)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d steps=%d trial %d: c[%d] = %v (%#x), portable tile %v (%#x)",
							n, steps, trial, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestTile8x4F64MatchesGo pins the f64 panel's tile to its portable form
// bit for bit: +0, −0, NaN, subnormal, ±1e308 and ±Inf operands in every
// weight row and in b (so a NaN weight must be added and a ±0 one skipped,
// 0·Inf and Inf−Inf make NaNs, and large products overflow) over every
// step count up to 17, at b row strides of 4, 5 and 9, from a tile that
// already holds values. It runs once per path the tile can take on this
// host (withAVX2): the portable form compared with itself, and the
// AVX2 transcription where the CPU has it.
func TestTile8x4F64MatchesGo(t *testing.T) {
	withAVX2(func(path string) {
		t.Logf("the %s tile", path)
		fill := tileOperands(11, []float64{0, math.Copysign(0, -1), hardwareNaN(), 5e-324, -2.5e-310, 1e308, -1e308, math.Inf(1), math.Inf(-1)})
		for _, n := range []int{4, 5, 9} {
			for steps := 0; steps <= 17; steps++ {
				for trial := 0; trial < 8; trial++ {
					var a [8][]float64
					for r := range a {
						a[r] = fill(make([]float64, steps))
					}
					b := fill(make([]float64, max(steps*n, 4)))
					var start [8][4]float64
					for r := range start {
						fill(start[r][:])
					}
					got, want := start, start
					tile8x4F64(&got, &a, b, n, steps)
					tile8x4F64Go(&want, &a, b, n, steps)
					for r := range got {
						for j := range got[r] {
							if math.Float64bits(got[r][j]) != math.Float64bits(want[r][j]) {
								t.Fatalf("%s: n=%d steps=%d trial %d: c[%d][%d] = %v (%#x), portable tile %v (%#x)",
									path, n, steps, trial, r, j, got[r][j], math.Float64bits(got[r][j]), want[r][j], math.Float64bits(want[r][j]))
							}
						}
					}
				}
			}
		}
	})
}
