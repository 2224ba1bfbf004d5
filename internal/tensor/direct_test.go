package tensor

import (
	"fmt"
	"math"
	"testing"
)

// directOperands returns a filler of seeded values in [-4, 4) at 2⁻²⁸
// steps, one in rate of them drawn from specials instead.
func directOperands(seed uint64, rate uint64, specials []float32) func([]float32) []float32 {
	s := seed
	return func(v []float32) []float32 {
		for i := range v {
			s = s*2862933555777941757 + 3037000493
			if (s>>40)%rate == 0 {
				v[i] = specials[(s>>33)%uint64(len(specials))]
			} else {
				v[i] = float32(int32(s>>33))/(1<<28) - 4
			}
		}
		return v
	}
}

// TestConvDirectMatchesGo pins the direct f32 convolution's SIMD form to
// its portable form bit for bit, over tap tables with and without a k mod 4
// tail, positions with no tap inside the image, and output channel counts
// that run four-, two- and one-block passes and a last block of fewer than
// eight channels. Each geometry runs twice: with ±0 and subnormal operands
// one in eight (so most outputs are finite, and a fused or reassociated sum
// shows in the last bits), and with NaN, ±Inf and ±3e38 operands one in 64
// as well, in weights and activations alike (so a zero weight meets an Inf
// activation, a NaN weight in the tail must be added and a ±0 one
// skipped). It runs once per path the kernel can take on this host
// (withAVX2): the portable form compared with itself, and the AVX2
// transcription where the CPU has it.
func TestConvDirectMatchesGo(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	trials := []struct {
		name string
		rate uint64
		vals []float32
	}{
		{"finite", 8, []float32{0, negZero, 1e-40, -3e-39}},
		{"specials", 64, []float32{0, negZero, float32(hardwareNaN()), inf, -inf, 3e38, -3e38, 1e-40}},
	}
	geoms := []convWindow{
		{window{h: 8, w: 8, kh: 3, kw: 3, stride: 2, pad: 1}, 8},
		{window{h: 4, w: 4, kh: 3, kw: 3, stride: 1, pad: 1}, 16},
		{window{h: 8, w: 8, kh: 1, kw: 1, stride: 2}, 8},
		{window{h: 2, w: 2, kh: 3, kw: 3, stride: 1, pad: 1}, 32},
		{window{h: 16, w: 16, kh: 3, kw: 3, stride: 1, pad: 1}, 3},
		{window{h: 7, w: 5, kh: 5, kw: 5, stride: 3, pad: 2}, 3},
		{window{h: 5, w: 6, kh: 3, kw: 2, stride: 1, pad: 1}, 5},
		{window{h: 2, w: 2, kh: 1, kw: 1, stride: 1, pad: 1}, 5},
	}
	withAVX2(func(path string) {
		t.Logf("the %s kernel", path)
		for gi, g := range geoms {
			tab := g.build()
			hw, k := tab.oh*tab.ow, g.c*g.kh*g.kw
			for _, outC := range []int{3, 8, 13, 16, 24, 32, 56} {
				for ti, tr := range trials {
					fill := directOperands(uint64(1000*gi+10*outC+ti), tr.rate, tr.vals)
					d := &DirectConv32{ldw: (outC + 7) &^ 7, outC: outC, inC: g.c, kh: g.kh, kw: g.kw, stride: g.stride, pad: g.pad}
					d.w = fill(make([]float32, k*d.ldw))
					x := fill(make([]float32, g.c*g.h*g.w))
					got, want := make([]float32, outC*hw), make([]float32, outC*hw)
					convDirectF32(got, x, d, tab.taps, hw)
					convDirectF32Go(want, x, d.w, d.ldw, outC, hw, tab.taps, 0, d.ldw/8)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: %+v outC=%d %s: out[%d][%d] = %v (%#x), portable form %v (%#x)",
								path, g, outC, tr.name, i/hw, i%hw, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
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
