package tensor

import (
	"fmt"
	"math"
	"testing"
)

// directOperands returns a filler of seeded values in [-4, 4) at 2⁻²⁸
// steps, one in rate of them drawn from specials instead.
func directOperands[T Float](seed uint64, rate uint64, specials []T) func([]T) []T {
	s := seed
	return func(v []T) []T {
		for i := range v {
			s = s*2862933555777941757 + 3037000493
			if (s>>40)%rate == 0 {
				v[i] = specials[(s>>33)%uint64(len(specials))]
			} else {
				v[i] = T(int32(s>>33))/(1<<28) - 4
			}
		}
		return v
	}
}

// directTrial is one kind of operand for testConvDirectMatchesGo: one in
// rate values drawn from vals. A masked trial also zeroes every third
// output channel's weights, alternating +0 and −0.
type directTrial[T Float] struct {
	name   string
	rate   uint64
	vals   []T
	masked bool
}

// directGeoms are the windows testConvDirectMatchesGo runs: tap tables with
// and without a k mod 4 tail, and positions with no tap inside the image.
var directGeoms = []convWindow{
	{window{h: 8, w: 8, kh: 3, kw: 3, stride: 2, pad: 1}, 8},
	{window{h: 4, w: 4, kh: 3, kw: 3, stride: 1, pad: 1}, 16},
	{window{h: 8, w: 8, kh: 1, kw: 1, stride: 2}, 8},
	{window{h: 2, w: 2, kh: 3, kw: 3, stride: 1, pad: 1}, 32},
	{window{h: 16, w: 16, kh: 3, kw: 3, stride: 1, pad: 1}, 3},
	{window{h: 7, w: 5, kh: 5, kw: 5, stride: 3, pad: 2}, 3},
	{window{h: 5, w: 6, kh: 3, kw: 2, stride: 1, pad: 1}, 5},
	{window{h: 2, w: 2, kh: 1, kw: 1, stride: 1, pad: 1}, 5},
}

// testConvDirectMatchesGo pins the direct convolution at T — its kernel
// for this host's path, convDirectKernel — to its portable form goForm
// bit for bit, over directGeoms and output channel counts that run every
// pass the AVX2 routines have, a last block of fewer than eight channels,
// fewer than four at float64 too, and no whole block at all. It runs once per path the kernel can
// take on this host (withAVX2): the portable form compared with itself, and
// the AVX2 transcription where the CPU has it. In a masked trial the zeroed
// channels must read +0 whatever their inputs where every tap is a tail tap
// (at float64, or at float32 with k < 4: a group's ±0 weight times an Inf
// is NaN, as in matmulRowsF32).
func testConvDirectMatchesGo[T Float](t *testing.T, trials []directTrial[T],
	goForm func(y, x, w []T, ldw, outC, hw int, taps []int32, b0, b1 int)) {
	_, f64 := any(T(0)).(float64)
	withAVX2(func(path string) {
		t.Logf("the %s kernel", path)
		for gi, g := range directGeoms {
			tab := g.build()
			hw, k := tab.oh*tab.ow, g.c*g.kh*g.kw
			for _, outC := range []int{3, 4, 6, 8, 13, 16, 24, 32, 56} {
				for ti, tr := range trials {
					fill := directOperands(uint64(1000*gi+10*outC+ti), tr.rate, tr.vals)
					d := &DirectConv[T]{ldw: (outC + 7) &^ 7, outC: outC, inC: g.c, kh: g.kh, kw: g.kw, stride: g.stride, pad: g.pad}
					d.w = fill(make([]T, k*d.ldw))
					if tr.masked {
						for p := 0; p < k; p++ {
							for o := 0; o < outC; o += 3 {
								d.w[p*d.ldw+o] = T(math.Copysign(0, float64(p%2*2-1)))
							}
						}
					}
					x := fill(make([]T, g.c*g.h*g.w))
					got, want := make([]T, outC*hw), make([]T, outC*hw)
					convDirectKernel[T]()(got, x, d, tab.taps, hw)
					goForm(want, x, d.w, d.ldw, outC, hw, tab.taps, 0, d.ldw/8)
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s: %+v outC=%d %s: out[%d][%d] = %v, portable form %v",
								path, g, outC, tr.name, i/hw, i%hw, got[i], want[i])
						}
						if tr.masked && (f64 || k < 4) && i/hw%3 == 0 && !sameBits(got[i], 0) {
							t.Fatalf("%s: %+v outC=%d %s: out[%d][%d] = %v under all-zero weights, want +0",
								path, g, outC, tr.name, i/hw, i%hw, got[i])
						}
					}
				}
			}
		}
	})
}

// sameBits reports whether a and b have the same bits.
func sameBits[T Float](a, b T) bool {
	switch a := any(a).(type) {
	case float32:
		return math.Float32bits(a) == math.Float32bits(any(b).(float32))
	default:
		return math.Float64bits(any(a).(float64)) == math.Float64bits(any(b).(float64))
	}
}

// TestConvDirectMatchesGo runs testConvDirectMatchesGo at float32. Each
// geometry runs three times: with ±0 and subnormal operands one in eight
// (so most outputs are finite, and a fused or reassociated sum shows in the
// last bits); with NaN, ±Inf and ±3e38 operands one in 64 as well, in
// weights and activations alike (so a zero weight meets an Inf activation,
// a NaN weight in the tail must be added and a ±0 one skipped); and with
// NaN and ±Inf activations one in eight under masked weights.
func TestConvDirectMatchesGo(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(hardwareNaN())
	testConvDirectMatchesGo(t, []directTrial[float32]{
		{name: "finite", rate: 8, vals: []float32{0, negZero, 1e-40, -3e-39}},
		{name: "specials", rate: 64, vals: []float32{0, negZero, nan, inf, -inf, 3e38, -3e38, 1e-40}},
		{name: "masked", rate: 8, vals: []float32{nan, inf, -inf, 1e-40}, masked: true},
	}, convDirectF32Go)
}

// TestConvDirectF64MatchesGo is TestConvDirectMatchesGo at float64, where
// every tap is a tail tap: a ±0 weight's product is masked to +0 against
// every input, a ±Inf or NaN one included, and the masked trial's all-zero
// channels read +0 only if that mask holds.
func TestConvDirectF64MatchesGo(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), hardwareNaN()
	testConvDirectMatchesGo(t, []directTrial[float64]{
		{name: "finite", rate: 8, vals: []float64{0, negZero, 5e-324, -1e-310}},
		{name: "specials", rate: 64, vals: []float64{0, negZero, nan, inf, -inf, 1.7e308, -1.7e308, 5e-324}},
		{name: "masked", rate: 8, vals: []float64{nan, inf, -inf, 5e-324}, masked: true},
	}, convDirectF64Go)
}

// TestConvTapsListTheGather holds each tap table to the gather table of
// its window: for every output position, the taps are exactly the image
// positions the gather reads, channel by channel, in ascending weight row,
// and they are grouped by row/4 below the largest multiple of 4 and listed
// one by one in the tail above it.
func TestConvTapsListTheGather(t *testing.T) {
	for _, g := range []convWindow{
		{window{h: 16, w: 16, kh: 3, kw: 3, stride: 1, pad: 1}, 3},
		{window{h: 8, w: 8, kh: 3, kw: 3, stride: 2, pad: 1}, 8},
		{window{h: 7, w: 5, kh: 5, kw: 5, stride: 3, pad: 2}, 3},
		{window{h: 2, w: 2, kh: 1, kw: 1, stride: 1, pad: 1}, 5},
	} {
		t.Run(fmt.Sprintf("%+v", g), func(t *testing.T) {
			tab, gat := g.build(), g.window.build()
			hw, kk := tab.oh*tab.ow, g.kh*g.kw
			k := g.c * kk
			q := 0
			next := func() int32 { q++; return tab.taps[q-1] }
			for j := 0; j < hw; j++ {
				var want [][2]int32 // (offset, row) of every tap inside the image
				for p := 0; p < k; p++ {
					if i := gat.idx[(p%kk)*hw+j]; i >= 0 {
						want = append(want, [2]int32{int32(p/kk*g.h*g.w) + i, int32(p)})
					}
				}
				var got [][2]int32
				for ng := next(); ng > 0; ng-- {
					n := next()
					if n < 1 || n > 4 {
						t.Fatalf("position %d: a group of %d taps", j, n)
					}
					var group int32 = -1
					for ; n > 0; n-- {
						off, p := next(), next()
						if int(p) >= k&^3 || group >= 0 && p/4 != group {
							t.Fatalf("position %d: row %d in the group of rows %d..%d", j, p, 4*group, 4*group+3)
						}
						group = p / 4
						got = append(got, [2]int32{off, p})
					}
				}
				for nt := next(); nt > 0; nt-- {
					off, p := next(), next()
					if int(p) < k&^3 {
						t.Fatalf("position %d: row %d in the tail", j, p)
					}
					got = append(got, [2]int32{off, p})
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("position %d: taps %v, want %v", j, got, want)
				}
			}
			if q != len(tab.taps) {
				t.Fatalf("table holds %d int32s, the positions read %d", len(tab.taps), q)
			}
		})
	}
}
