package tensor

import (
	"testing"
)

func randTensor(seedMul float64, shape ...int) *Tensor {
	t := New(shape...)
	// Deterministic pseudo-values without pulling in the rng package (import
	// cycle: rng is above tensor? it isn't, but the kernels need no
	// distributional realism).
	x := 0.5
	for i := range t.Data {
		x = x*3.9*(1-x) + 1e-9 // logistic map, chaotic and deterministic
		t.Data[i] = (x - 0.5) * seedMul
	}
	return t
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 200, 130}, {33, 65, 129}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(2, m, k)
		b := randTensor(3, k, n)
		want := refMatMul(a, b)
		dst := New(m, n)
		// Poison dst: Into kernels must fully overwrite.
		for i := range dst.Data {
			dst.Data[i] = 1e30
		}
		got := MatMulInto(dst, a, b)
		if !got.AllClose(want, 0) {
			t.Errorf("MatMulInto diverges from the reference at %v", dims)
		}
	}
}

func TestMatMulTransIntoMatchesAllocating(t *testing.T) {
	a := randTensor(1.5, 7, 13)
	b := randTensor(2.5, 9, 13) // for TransB: [n,k]
	want := refMatMul(a, transpose(b))
	got := MatMulTransBInto(New(7, 9), a, b)
	if !got.AllClose(want, 0) {
		t.Error("MatMulTransBInto diverges")
	}

	at := randTensor(1.1, 13, 7) // for TransA: [k,m]
	bt := randTensor(0.9, 13, 9)
	wantA := refMatMul(transpose(at), bt)
	gotA := MatMulTransAInto(New(7, 9), at, bt)
	if !gotA.AllClose(wantA, 0) {
		t.Error("MatMulTransAInto diverges")
	}
}

// TestIm2ColIntoMatchesIm2Col holds Im2ColInto to the replaced
// border-testing loop (refIm2col) over a dirty destination, non-square
// kernels included.
func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	x := randTensor(1, 3, 9, 7)
	for _, cfg := range [][4]int{{3, 3, 1, 1}, {2, 2, 2, 0}, {5, 3, 1, 2}} {
		kh, kw, stride, pad := cfg[0], cfg[1], cfg[2], cfg[3]
		want := New(3*kh*kw, ConvOutSize(9, kh, stride, pad)*ConvOutSize(7, kw, stride, pad))
		refIm2col(want.Data, x.Data, 3, 9, 7, kh, kw, stride, pad)
		dst := New(want.Shape...)
		for i := range dst.Data {
			dst.Data[i] = -7
		}
		if got := Im2ColInto(dst, x, kh, kw, stride, pad); !got.AllClose(want, 0) {
			t.Errorf("Im2ColInto diverges from the reference at %v", cfg)
		}
	}
}

func TestConvForwardIntoMatchesConvForward(t *testing.T) {
	x := randTensor(1, 4, 5, 10, 8)
	w := randTensor(0.3, 6, 5*9)
	bias := randTensor(0.1, 6)
	want, _ := ConvForward(x, w, bias, 3, 3, 1, 1)
	oh := ConvOutSize(10, 3, 1, 1)
	ow := ConvOutSize(8, 3, 1, 1)
	y := New(4, 6, oh, ow)
	cols := New(5*9, oh*ow)
	got := ConvForwardInto(y, x, w, bias, cols, 3, 3, 1, 1)
	if !got.AllClose(want, 0) {
		t.Error("ConvForwardInto diverges from ConvForward")
	}

	// Without bias.
	wantNB, _ := ConvForward(x, w, nil, 3, 3, 1, 1)
	gotNB := ConvForwardInto(y, x, w, nil, cols, 3, 3, 1, 1)
	if !gotNB.AllClose(wantNB, 0) {
		t.Error("ConvForwardInto (no bias) diverges")
	}
}

func TestAddScaleInto(t *testing.T) {
	a := randTensor(1, 4, 4)
	b := randTensor(2, 4, 4)
	want := a.Add(b)
	if !AddInto(New(4, 4), a, b).AllClose(want, 0) {
		t.Error("AddInto diverges")
	}
	// Aliased dst.
	dst := a.Clone()
	if !AddInto(dst, dst, b).AllClose(want, 0) {
		t.Error("aliased AddInto diverges")
	}
}

func TestArenaReuseAndInvalidations(t *testing.T) {
	a := &Arena[float64]{}
	t1 := a.NewTensor(2, 3)
	if len(t1.Data) != 6 || t1.Shape[0] != 2 {
		t.Fatalf("arena tensor shape %v", t1.Shape)
	}
	for i := range t1.Data {
		t1.Data[i] = float64(i)
	}
	v := a.View(t1, 3, 2)
	if &v.Data[0] != &t1.Data[0] {
		t.Error("View must alias the source tensor")
	}
	c := a.Clone(t1)
	if &c.Data[0] == &t1.Data[0] {
		t.Error("Clone must not alias")
	}
	a.Reset()

	// Second cycle of identical demand reuses the grown buffer: the same
	// backing array comes back.
	t2 := a.NewTensor(2, 3)
	a.Reset()
	t3 := a.NewTensor(2, 3)
	if &t2.Data[0] != &t3.Data[0] {
		t.Error("arena did not reuse its backing buffer across cycles")
	}
	if a.Footprint() == 0 {
		t.Error("warmed arena reports zero footprint")
	}
}

func TestArenaSteadyStateZeroAllocs(t *testing.T) {
	a := &Arena[float64]{}
	shape := []int{4, 8, 16}
	// Warm-up cycle sizes the arena.
	a.NewTensor(shape...)
	a.NewTensor(2, 2)
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		t1 := a.NewTensor(shape...)
		a.View(t1, 8, 64)
		a.NewTensor(2, 2)
		a.Reset()
	})
	if allocs != 0 {
		t.Errorf("steady-state arena cycle allocates %v times, want 0", allocs)
	}
}

func TestSetKernelParallelism(t *testing.T) {
	defer SetKernelParallelism(0)
	SetKernelParallelism(1)
	if kernelWorkers.Load() != 1 {
		t.Fatal("knob not set")
	}
	x := randTensor(1, 8, 3, 6, 6)
	w := randTensor(2, 4, 3*9)
	serial, _ := ConvForward(x, w, nil, 3, 3, 1, 1)
	SetKernelParallelism(-3)
	if kernelWorkers.Load() != 0 {
		t.Fatal("knob not reset")
	}
	parallel, _ := ConvForward(x, w, nil, 3, 3, 1, 1)
	if !serial.AllClose(parallel, 0) {
		t.Error("kernel parallelism cap changes ConvForward results")
	}
}
