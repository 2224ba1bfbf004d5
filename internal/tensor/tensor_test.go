package tensor

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"testing/quick"

	"ensembler/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := x.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v", got)
	}
	x.Set(42, 1, 0)
	if got := x.At(1, 0); got != 42 {
		t.Errorf("after Set, At(1,0) = %v", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 9
	if x.At(0, 0) != 9 {
		t.Error("Reshape should share backing data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := a.Add(b); !got.AllClose(FromSlice([]float64{5, 7, 9}, 3), 0) {
		t.Errorf("Add = %v", got.Data)
	}
	if got := b.Sub(a); !got.AllClose(FromSlice([]float64{3, 3, 3}, 3), 0) {
		t.Errorf("Sub = %v", got.Data)
	}
	if got := a.Scale(2); !got.AllClose(FromSlice([]float64{2, 4, 6}, 3), 0) {
		t.Errorf("Scale = %v", got.Data)
	}
	if got := a.Clone().AddScaledInPlace(b, 0.5); !got.AllClose(FromSlice([]float64{3, 4.5, 6}, 3), 1e-12) {
		t.Errorf("AddScaled = %v", got.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 3, 2, 0}, 4)
	if x.Sum() != 4 {
		t.Errorf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1 {
		t.Errorf("Mean = %v", x.Mean())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := matMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("MatMulInto = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(5, 5)
	r.FillNormal(a.Data, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	if got := matMul(a, id); !got.AllClose(a, 1e-12) {
		t.Error("A × I != A")
	}
	if got := matMul(id, a); !got.AllClose(a, 1e-12) {
		t.Error("I × A != A")
	}
}

// randomMat builds a deterministic pseudo-random matrix from a seed.
func randomMat(seed int64, m, n int) *Tensor {
	r := rng.New(seed)
	t := New(m, n)
	r.FillNormal(t.Data, 0, 1)
	return t
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	a := randomMat(2, 4, 6)
	b := randomMat(3, 6, 5)
	want := matMul(a, b)
	if got := MatMulTransBInto(New(4, 5), a, transpose(b)); !got.AllClose(want, 1e-9) {
		t.Error("MatMulTransBInto(a, bT) != a×b")
	}
	if got := MatMulTransAInto(New(4, 5), transpose(a), b); !got.AllClose(want, 1e-9) {
		t.Error("MatMulTransAInto(aT, b) != a×b")
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randomMat(4, 3, 7)
	if !transpose(transpose(a)).AllClose(a, 0) {
		t.Error("transpose twice should be identity")
	}
}

// Property: MatMulInto distributes over addition, (a+b)×c == a×c + b×c.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMat(seed, 3, 4)
		b := randomMat(seed+1, 3, 4)
		c := randomMat(seed+2, 4, 2)
		lhs := matMul(a.Add(b), c)
		rhs := matMul(a, c).Add(matMul(b, c))
		return lhs.AllClose(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: matmul associativity (a×b)×c ≈ a×(b×c).
func TestMatMulAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMat(seed, 2, 3)
		b := randomMat(seed+10, 3, 4)
		c := randomMat(seed+20, 4, 2)
		return matMul(matMul(a, b), c).AllClose(matMul(a, matMul(b, c)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and ||x||² == Dot(x, x) >= 0.
func TestDotProperties(t *testing.T) {
	f := func(seed int64) bool {
		a := randomMat(seed, 1, 16)
		b := randomMat(seed+5, 1, 16)
		if math.Abs(a.Dot(b)-b.Dot(a)) > 1e-9 {
			return false
		}
		n := a.L2Norm()
		return n >= 0 && math.Abs(n*n-a.Dot(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(16, 3, 1, 1); got != 16 {
		t.Errorf("same conv out = %d", got)
	}
	if got := ConvOutSize(16, 3, 2, 1); got != 8 {
		t.Errorf("stride-2 out = %d", got)
	}
	if got := ConvOutSize(4, 4, 4, 0); got != 1 {
		t.Errorf("full window out = %d", got)
	}
}

// naiveConv is a direct reference convolution used to validate the
// im2col-based kernel on one sample.
func naiveConv(x, w, b *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, ww := x.Shape[0], x.Shape[1], x.Shape[2]
	oc := w.Shape[0]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(ww, kw, stride, pad)
	out := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*stride + ky - pad
							ix := ox*stride + kx - pad
							if iy < 0 || iy >= h || ix < 0 || ix >= ww {
								continue
							}
							s += x.At(ci, iy, ix) * w.At(o, (ci*kh+ky)*kw+kx)
						}
					}
				}
				if b != nil {
					s += b.Data[o]
				}
				out.Set(s, o, oy, ox)
			}
		}
	}
	return out
}

func TestConvForwardMatchesNaive(t *testing.T) {
	r := rng.New(7)
	x := New(2, 3, 8, 8)
	r.FillNormal(x.Data, 0, 1)
	w := New(5, 3*3*3)
	r.FillNormal(w.Data, 0, 0.5)
	b := New(5)
	r.FillNormal(b.Data, 0, 0.5)
	for _, cfg := range []struct{ stride, pad int }{{1, 1}, {2, 1}, {1, 0}} {
		y, _ := ConvForward(x, w, b, 3, 3, cfg.stride, cfg.pad)
		for i := 0; i < 2; i++ {
			want := naiveConv(x.SampleView(i), w, b, 3, 3, cfg.stride, cfg.pad)
			got := y.SampleView(i)
			if !got.AllClose(want, 1e-9) {
				t.Errorf("stride=%d pad=%d sample %d: conv mismatch", cfg.stride, cfg.pad, i)
			}
		}
	}
}

// Property: col2im is the adjoint of im2col — for any x, g:
// <im2col(x), g> == <x, col2im(g)>. This is exactly the identity that makes
// the convolution backward pass correct. Both run through the kernels the
// convolution uses: Im2ColInto and col2imAdd over one gather table.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		c, h, w := 2, 6, 5
		kh, kw, stride, pad := 3, 3, 2, 1
		x := New(c, h, w)
		r.FillNormal(x.Data, 0, 1)
		cols := New(c*kh*kw, ConvOutSize(h, kh, stride, pad)*ConvOutSize(w, kw, stride, pad))
		Im2ColInto(cols, x, kh, kw, stride, pad)
		g := New(cols.Shape...)
		r.FillNormal(g.Data, 0, 1)
		img := New(c, h, w)
		col2imAddTable(img.Data, g.Data, c, h, w, kh, kw, stride, pad)
		lhs := cols.Dot(g)
		rhs := x.Dot(img)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConvBackwardNumericGradient(t *testing.T) {
	r := rng.New(11)
	n, c, h, w := 2, 2, 5, 5
	kh, kw, stride, pad := 3, 3, 1, 1
	x := New(n, c, h, w)
	r.FillNormal(x.Data, 0, 1)
	wt := New(3, c*kh*kw)
	r.FillNormal(wt.Data, 0, 0.5)
	b := New(3)

	// Scalar loss L = sum(conv(x)); analytic gradient via ConvBackward with
	// gradY = ones.
	y, cols := ConvForward(x, wt, b, kh, kw, stride, pad)
	gy := Full(1, y.Shape...)
	gx, gw, gb := ConvBackward(gy, wt, cols, c, h, w, kh, kw, stride, pad)

	loss := func() float64 {
		y, _ := ConvForward(x, wt, b, kh, kw, stride, pad)
		return y.Sum()
	}
	const eps = 1e-6
	check := func(name string, param *Tensor, grad *Tensor, idx int) {
		old := param.Data[idx]
		param.Data[idx] = old + eps
		lp := loss()
		param.Data[idx] = old - eps
		lm := loss()
		param.Data[idx] = old
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("%s[%d]: numeric %v vs analytic %v", name, idx, num, grad.Data[idx])
		}
	}
	for _, idx := range []int{0, 7, 20} {
		check("x", x, gx, idx)
		check("w", wt, gw, idx%wt.Size())
	}
	check("b", b, gb, 1)
}

func TestGobRoundTrip(t *testing.T) {
	x := randomMat(99, 3, 4)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(x); err != nil {
		t.Fatal(err)
	}
	var y Tensor
	if err := gob.NewDecoder(&buf).Decode(&y); err != nil {
		t.Fatal(err)
	}
	if !x.AllClose(&y, 0) {
		t.Error("gob round trip changed values")
	}
}

func TestSampleViewSharesData(t *testing.T) {
	x := New(2, 3, 2, 2)
	v := x.SampleView(1)
	v.Data[0] = 5
	if x.At(1, 0, 0, 0) != 5 {
		t.Error("SampleView must alias the parent tensor")
	}
	if len(v.Shape) != 3 || v.Shape[0] != 3 {
		t.Errorf("SampleView shape = %v", v.Shape)
	}
}
