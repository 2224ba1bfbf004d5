package tensor

import (
	"fmt"
	"math"
	"testing"
)

// elementwiseSpecials are the values the elementwise tests mix into their
// operands: ±0, subnormals, ±Inf, the CPU's own NaN and values near the
// top of the range (whose sums overflow), as T.
func elementwiseSpecials[T Float]() []T {
	if _, f32 := any(T(0)).(float32); f32 {
		return []T{0, T(math.Copysign(0, -1)), T(float32(1e-40)), T(float32(-3e-39)), T(math.Inf(1)), T(math.Inf(-1)),
			T(hardwareNaN()), T(float32(3e38)), T(float32(-3e38))}
	}
	huge := 1.7e308
	return []T{0, T(math.Copysign(0, -1)), T(5e-324), T(-1e-310), T(math.Inf(1)), T(math.Inf(-1)),
		T(hardwareNaN()), T(huge), T(-huge)}
}

// testAddReLU holds AddReLUInto at T to its definition, AddInto then ReLU,
// bit for bit on every path this host has (withAVX2), over lengths with and
// without a tail past the last whole vector, with dst a third slice and
// dst aliasing a. The operands hold the specials one in four, so sums meet
// −0 + −0, Inf − Inf, NaN and overflow, and half of b is −a, so sums of
// +0 meet the rectifier too.
func testAddReLU[T Float](t *testing.T) {
	withAVX2(func(path string) {
		for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 16, 33, 256, 2051} {
			fill := directOperands(uint64(n), 4, elementwiseSpecials[T]())
			a, b := fill(make([]T, n)), fill(make([]T, n))
			for i := 0; i < n; i += 2 {
				b[i] = -a[i]
			}
			want := make([]T, n)
			for i := range want {
				want[i] = a[i] + b[i]
			}
			ReLU(want, want)
			dense := func(v []T) *Dense[T] { return &Dense[T]{Data: v, Shape: []int{n}} }
			got := AddReLUInto(dense(make([]T, n)), dense(a), dense(b)).Data
			inPlace := AddReLUInto(dense(a), dense(a), dense(b)).Data
			for i := range want {
				if !sameBits(got[i], want[i]) || !sameBits(inPlace[i], want[i]) {
					t.Fatalf("%s: n=%d: relu(%v + %v) = %v (in place %v), AddInto then ReLU %v",
						path, n, a[i], b[i], got[i], inPlace[i], want[i])
				}
			}
		}
	})
}

func TestAddReLUMatchesGo(t *testing.T) {
	t.Run("f32", testAddReLU[float32])
	t.Run("f64", testAddReLU[float64])
}

// testNormReLUPool holds NormReLUPoolInto at T to its definition,
// BatchNormInto then MaxPoolInto at floor +0, bit for bit on every path
// this host has (withAVX2): on the Go path it must run nothing and report
// false; on AVX2 it must run on 16×16 and 8×8 planes with a 2×2 window of
// stride 2 and report false on any other geometry. Inputs and batch-norm
// constants hold the specials one in eight. Channel 0 has the identity
// batch norm and hand-set windows: the first output's window is all NaN
// and −0 (it must read +0), the second's a NaN beside one positive tap (it
// must read that tap), the third's −Inf, −0, +0 and a subnormal (the
// subnormal).
func testNormReLUPool[T Float](t *testing.T) {
	nan, negZero := T(hardwareNaN()), T(math.Copysign(0, -1))
	sub := elementwiseSpecials[T]()[2]
	withAVX2(func(path string) {
		for _, g := range []struct{ n, c, h, w, k, stride int }{
			{1, 8, 16, 16, 2, 2}, {3, 8, 16, 16, 2, 2}, {2, 4, 8, 8, 2, 2}, {1, 1, 8, 8, 2, 2}, {8, 5, 16, 16, 2, 2},
			{1, 4, 12, 12, 2, 2}, {1, 4, 16, 8, 2, 2}, {1, 4, 16, 16, 3, 2}, {1, 4, 8, 8, 2, 1}, {1, 4, 32, 32, 2, 2},
		} {
			name := fmt.Sprintf("%s: %+v", path, g)
			fill := directOperands(uint64(g.n*1000+g.c*10+g.h), 8, elementwiseSpecials[T]())
			x := &Dense[T]{Data: fill(make([]T, g.n*g.c*g.h*g.w)), Shape: []int{g.n, g.c, g.h, g.w}}
			bn := [4][]T{}
			for r := range bn {
				bn[r] = fill(make([]T, g.c))
			}
			bn[0][0], bn[1][0], bn[2][0], bn[3][0] = 0, 1, 1, 0
			plane := x.Data[:g.h*g.w]
			for i, v := range map[int]T{0: nan, 1: negZero, g.w: nan, g.w + 1: nan, // window 0
				2: nan, 3: 2.5, g.w + 2: -1, g.w + 3: nan, // window 1
				4: T(math.Inf(-1)), 5: negZero, g.w + 4: 0, g.w + 5: sub} { // window 2
				plane[i] = v
			}
			oh, ow := ConvOutSize(g.h, g.k, g.stride, 0), ConvOutSize(g.w, g.k, g.stride, 0)
			want := NewOf[T](g.n, g.c, oh, ow)
			MaxPoolInto(want, BatchNormInto(NewOf[T](x.Shape...), x, bn[0], bn[1], bn[2], bn[3]), g.k, g.stride, 0)
			if g.k == 2 && g.stride == 2 {
				for o, v := range map[int]T{0: 0, 1: 2.5, 2: sub} {
					if !sameBits(want.Data[o], v) {
						t.Fatalf("%s: the definition pools window %d to %v, want %v", name, o, want.Data[o], v)
					}
				}
			}
			got := NewOf[T](g.n, g.c, oh, ow)
			for i := range got.Data {
				got.Data[i] = nan
			}
			vector := path == "avx2" && g.k == 2 && g.stride == 2 && g.h == g.w && (g.h == 16 || g.h == 8)
			if ran := NormReLUPoolInto(got, x, bn[0], bn[1], bn[2], bn[3], g.k, g.stride); ran != vector {
				t.Fatalf("%s: NormReLUPoolInto reports %v, want %v", name, ran, vector)
			}
			if !vector {
				continue
			}
			for i := range want.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("%s: out %d = %v, batch norm then pool at +0 %v", name, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

func TestNormReLUPoolMatchesGo(t *testing.T) {
	t.Run("f32", testNormReLUPool[float32])
	t.Run("f64", testNormReLUPool[float64])
}
