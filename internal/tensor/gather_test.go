package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// TestGatherMatchesReference pins im2col, col2im, max pooling and its
// gradient through the window gather table to the loops they replaced
// (kernels_ref_test.go) bit for bit, at both precisions: every conv and pool
// window the serving architectures slide, plus every k ∈ {1,3,5},
// stride ∈ {1,2,3}, pad ∈ {0,1,2} over odd and non-square planes (every
// square pad-0 window is pooled too). Outputs the kernels overwrite start as
// a NaN no input holds, so an entry never written shows; col2im accumulates
// onto a seeded image. The inputs hold NaN, ±0, ±Inf, and an all-negative
// plane, so the pool's first-strictly-greater rule is exercised at both
// floors: −Inf (MaxPool2D) and +0 (a ReLU folded into it). The gradient's
// inputs are small integers and ±0, so most windows hold ties, which the
// same rule breaks.
func TestGatherMatchesReference(t *testing.T) {
	geoms := map[string]archWindow{}
	for _, a := range []struct {
		name string
		arch split.Arch
	}{
		{"cifar10", split.DefaultArch(data.CIFAR10Like)},
		{"cifar100", split.DefaultArch(data.CIFAR100Like)},
		{"tiny", commtest.TinyArch()},
	} {
		convs, pools := 0, 0
		for i, w := range archWindows(a.arch) {
			kind := "conv"
			if w.outC == 0 {
				kind = "pool"
				pools++
			} else {
				convs++
			}
			geoms[fmt.Sprintf("%s/%s%d_%dx%dx%d_k%d_s%d_p%d", a.name, kind, i, w.c, w.h, w.w, w.kh, w.stride, w.pad)] = w
		}
		wantPools := 0
		if a.arch.UseMaxPool {
			wantPools = 1
		}
		if convs != 1+3*len(a.arch.BlockWidths) || pools != wantPools {
			t.Fatalf("%s: found %d conv and %d pool windows, want %d and %d", a.name, convs, pools, 1+3*len(a.arch.BlockWidths), wantPools)
		}
	}
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range [][2]int{{7, 5}, {6, 9}} {
					if hw[0]+2*pad < k || hw[1]+2*pad < k {
						continue
					}
					geoms[fmt.Sprintf("grid/%dx%d_k%d_s%d_p%d", hw[0], hw[1], k, stride, pad)] =
						archWindow{c: 3, h: hw[0], w: hw[1], kh: k, kw: k, stride: stride, pad: pad}
				}
			}
		}
	}
	for name, g := range geoms {
		t.Run(name, func(t *testing.T) {
			checkGather(t, g, tensor.RefIm2col64, tensor.RefMaxPool64)
			checkGather(t, g, tensor.RefIm2col32, tensor.RefMaxPool32)
			checkCol2im(t, g)
			checkPoolGrad(t, g)
		})
	}
}

// gatherInput returns n planes of g's extent as seeded normals with a
// special value at every seventh element and plane 1 all negative.
func gatherInput[T tensor.Float](n int, g archWindow) *tensor.Dense[T] {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1e-30}
	x := tensor.NewOf[T](n, g.c, g.h, g.w)
	r := rng.New(int64(g.h*1000 + g.w*100 + g.kh*10 + g.stride + g.pad))
	hw := g.h * g.w
	for i := range x.Data {
		v := r.Norm()
		if i%7 == 3 {
			v = specials[(i/7)%len(specials)]
		}
		if i/hw == 1 {
			v = -math.Abs(v)
		}
		x.Data[i] = T(v)
	}
	return x
}

// poison is a NaN no kernel input holds: a destination entry still holding
// it was never written.
func poison[T tensor.Float]() T {
	var z T
	if _, ok := any(z).(float32); ok {
		return T(math.Float32frombits(0x7fc0beef))
	}
	return T(math.Float64frombits(0x7ff80000deadbeef))
}

// sameBits reports whether a and b agree in every bit.
func sameBits[T tensor.Float](a, b T) bool {
	if x, ok := any(a).(float32); ok {
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	}
	return math.Float64bits(any(a).(float64)) == math.Float64bits(any(b).(float64))
}

// firstDiff returns the first index where got and want differ in bits, or
// -1.
func firstDiff[T tensor.Float](got, want []T) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

func checkGather[T tensor.Float](t *testing.T, g archWindow,
	refIm2col func(dst, src []T, c, h, w, kh, kw, stride, pad int),
	refPool func(dst, x []T, n, c, h, w, k, stride int, floor T)) {
	t.Helper()
	prec := fmt.Sprintf("%T", *new(T))
	oh, ow := tensor.ConvOutSize(g.h, g.kh, g.stride, g.pad), tensor.ConvOutSize(g.w, g.kw, g.stride, g.pad)

	x := gatherInput[T](1, g)
	img := &tensor.Dense[T]{Shape: x.Shape[1:], Data: x.Data}
	got := tensor.NewOf[T](g.c*g.kh*g.kw, oh*ow)
	for i := range got.Data {
		got.Data[i] = poison[T]()
	}
	want := make([]T, len(got.Data))
	tensor.Im2ColInto(got, img, g.kh, g.kw, g.stride, g.pad)
	refIm2col(want, img.Data, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
	if i := firstDiff(got.Data, want); i >= 0 {
		t.Errorf("%s im2col entry %d is %v, reference %v", prec, i, got.Data[i], want[i])
	}

	if g.pad != 0 || g.kh != g.kw {
		return
	}
	x = gatherInput[T](2, g)
	for _, floor := range []T{T(math.Inf(-1)), 0} {
		y := tensor.NewOf[T](2, g.c, oh, ow)
		for i := range y.Data {
			y.Data[i] = poison[T]()
		}
		want := make([]T, len(y.Data))
		tensor.MaxPoolInto(y, x, g.kh, g.stride, floor)
		refPool(want, x.Data, 2, g.c, g.h, g.w, g.kh, g.stride, floor)
		if i := firstDiff(y.Data, want); i >= 0 {
			t.Errorf("%s pool (floor %v) output %d is %v, reference %v", prec, floor, i, y.Data[i], want[i])
		}
	}
}

func checkCol2im(t *testing.T, g archWindow) {
	t.Helper()
	oh, ow := tensor.ConvOutSize(g.h, g.kh, g.stride, g.pad), tensor.ConvOutSize(g.w, g.kw, g.stride, g.pad)
	r := rng.New(int64(oh*100 + ow))
	cols := make([]float64, g.c*g.kh*g.kw*oh*ow)
	r.FillNormal(cols, 0, 1)
	got := make([]float64, g.c*g.h*g.w)
	r.FillNormal(got, 0, 1)
	want := append([]float64(nil), got...)
	tensor.Col2imAdd(got, cols, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
	tensor.RefCol2imAdd(want, cols, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
	if i := firstDiff(got, want); i >= 0 {
		t.Errorf("col2im element %d is %v, reference %v", i, got[i], want[i])
	}
}

func checkPoolGrad(t *testing.T, g archWindow) {
	t.Helper()
	if g.pad != 0 || g.kh != g.kw {
		return
	}
	oh, ow := tensor.ConvOutSize(g.h, g.kh, g.stride, 0), tensor.ConvOutSize(g.w, g.kw, g.stride, 0)
	r := rng.New(int64(g.h*100 + g.w))
	x := tensor.New(2, g.c, g.h, g.w)
	for i := range x.Data {
		x.Data[i] = float64(r.Intn(3) - 2)
		if x.Data[i] == 0 && r.Intn(2) == 0 {
			x.Data[i] = math.Copysign(0, -1)
		}
	}
	dy := tensor.New(2, g.c, oh, ow)
	r.FillNormal(dy.Data, 0, 1)
	got := tensor.New(x.Shape...)
	want := make([]float64, len(got.Data))
	tensor.MaxPoolGradAdd(got, x, dy, g.kh, g.stride)
	tensor.RefMaxPoolGrad(want, x.Data, dy.Data, 2, g.c, g.h, g.w, g.kh, g.stride)
	if i := firstDiff(got.Data, want); i >= 0 {
		t.Errorf("pool gradient element %d is %v, reference %v", i, got.Data[i], want[i])
	}
}
