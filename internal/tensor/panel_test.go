package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// archWindow is one window one forward pass of an architecture's head and
// body slides: a convolution of c input and outC output channels, or a
// max-pool (outC 0, pad 0) over c channels.
type archWindow struct{ outC, c, h, w, kh, kw, stride, pad int }

// archWindows returns every conv and pool window of arch's head and body, in
// forward order.
func archWindows(arch split.Arch) []archWindow {
	r := rng.New(1)
	c, h, w := arch.InC, arch.H, arch.W
	var ws []archWindow
	conv := func(l *nn.Conv2D, h, w int) (int, int) {
		ws = append(ws, archWindow{l.OutC, l.InC, h, w, l.KH, l.KW, l.Stride, l.Pad})
		return tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad), tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	}
	for _, l := range append(arch.NewHead("h", r).Layers, arch.NewBody("b", r).Layers...) {
		switch l := l.(type) {
		case *nn.Conv2D:
			h, w = conv(l, h, w)
			c = l.OutC
		case *nn.MaxPool2D:
			ws = append(ws, archWindow{0, c, h, w, l.K, l.K, l.Stride, 0})
			h, w = tensor.ConvOutSize(h, l.K, l.Stride, 0), tensor.ConvOutSize(w, l.K, l.Stride, 0)
		case *nn.BasicBlock:
			if l.ShortConv != nil {
				conv(l.ShortConv, h, w)
			}
			h, w = conv(l.Conv1, h, w)
			h, w = conv(l.Conv2, h, w)
			c = l.Conv2.OutC
		}
	}
	return ws
}

// convPanels returns the (m, k, n) shape of every im2col matmul one forward
// pass of arch's head and body runs: m output channels, k = C·KH·KW, n =
// OH·OW of one sample.
func convPanels(arch split.Arch) [][3]int {
	var panels [][3]int
	for _, w := range archWindows(arch) {
		if w.outC > 0 {
			oh, ow := tensor.ConvOutSize(w.h, w.kh, w.stride, w.pad), tensor.ConvOutSize(w.w, w.kw, w.stride, w.pad)
			panels = append(panels, [3]int{w.outC, w.c * w.kh * w.kw, oh * ow})
		}
	}
	return panels
}

// TestPanelsMatchReference pins the matmul panels — the f64 one
// register-tiled, the f32 one a plain per-output loop — to the panels they
// replaced (kernels_ref_test.go) bit for bit, at both precisions: every
// conv panel the serving architectures run, plus panels
// whose n leaves 1–3 columns past the last four-column tile, whose m is odd
// or leaves a short last block of the f64 panel's eight-row tiles (9, 15,
// 17), and whose k crosses the replaced f32 panel's 64-wide blocks. The
// weights hold exact zeros, and the last k-row of b holds a +Inf under an
// all-zero weight column, +0 in even rows and −0 in odd ones: the f64
// oracle skips zero weights of either sign, so its output stays finite; the
// f32 panel skips them only in the k mod 4 tail, so a zero inside a group of
// four multiplies the +Inf into NaN — both exactly as before. Rows 1 and 2
// each hold one NaN weight, which both panels add (NaN != 0), so those rows
// read NaN throughout: a tile that took a NaN for a zero (VUCOMISD sets ZF
// for both) would leave them finite. The f64 panel runs once per path its
// tile can take on this host (WithAVX2): the Go form, and AVX2 where
// the CPU has it.
func TestPanelsMatchReference(t *testing.T) {
	shapes := map[string][3]int{}
	for _, a := range []struct {
		name string
		arch split.Arch
	}{
		{"cifar10", split.DefaultArch(data.CIFAR10Like)},
		{"cifar100", split.DefaultArch(data.CIFAR100Like)},
		{"tiny", commtest.TinyArch()},
	} {
		panels := convPanels(a.arch)
		if want := 1 + 3*len(a.arch.BlockWidths); len(panels) != want {
			t.Fatalf("%s: found %d conv panels, want %d (head + 3 per block)", a.name, len(panels), want)
		}
		for i, s := range panels {
			shapes[fmt.Sprintf("%s/conv%d_%dx%dx%d", a.name, i, s[0], s[1], s[2])] = s
		}
	}
	for _, k := range []int{8, 27, 64, 65, 130, 288} {
		for _, m := range []int{3, 8, 9, 15, 17} {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
				shapes[fmt.Sprintf("edge/%dx%dx%d", m, k, n)] = [3]int{m, k, n}
			}
		}
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			m, k, n := s[0], s[1], s[2]
			a, b := make([]float64, m*k), make([]float64, k*n)
			r := rng.New(int64(m*1000003 + k*1009 + n))
			r.FillNormal(a, 0, 1)
			r.FillNormal(b, 0, 1)
			for i := range a {
				if i%7 == 3 || i%k == k-1 {
					a[i] = 0
				}
				if i%k == k-1 && i/k%2 == 1 {
					a[i] = math.Copysign(0, -1)
				}
			}
			nan := tensor.HardwareNaN()
			for _, row := range []int{1, 2} {
				if row < m {
					a[row*k+k/2] = nan
				}
			}
			b[(k-1)*n] = math.Inf(1)
			a32, b32 := narrow(a), narrow(b)
			// The f32 sum reaches the +Inf inside a group of four exactly
			// when k has no k mod 4 tail.
			poisoned := k%4 == 0

			tensor.WithAVX2(func(path string) {
				for _, rows := range [][2]int{{0, m}, {1, m}, {0, m - 1}} {
					i0, i1 := rows[0], rows[1]
					if i0 >= i1 {
						continue
					}
					want, got := make([]float64, m*n), filled(m*n, math.NaN())
					tensor.RefMatmulRows64(want, a, b, i0, i1, k, n)
					tensor.MatmulRows64(got, a, b, i0, i1, k, n)
					want32, got32 := make([]float32, m*n), narrow(filled(m*n, math.NaN()))
					tensor.RefMatmulRows32(want32, a32, b32, i0, i1, k, n)
					tensor.MatmulRows32(got32, a32, b32, i0, i1, k, n)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							e := i*n + j
							if i < i0 || i >= i1 {
								if !math.IsNaN(got[e]) || !math.IsNaN(float64(got32[e])) {
									t.Fatalf("%s tile, rows [%d,%d): wrote out[%d][%d] outside the range", path, i0, i1, i, j)
								}
								continue
							}
							if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
								t.Fatalf("%s tile, rows [%d,%d): f64 out[%d][%d] = %v, reference %v", path, i0, i1, i, j, got[e], want[e])
							}
							if math.Float32bits(got32[e]) != math.Float32bits(want32[e]) {
								t.Fatalf("rows [%d,%d): f32 out[%d][%d] = %v, reference %v", i0, i1, i, j, got32[e], want32[e])
							}
							nanRow := i == 1 || i == 2
							if math.IsInf(got[e], 0) || math.IsNaN(got[e]) != nanRow {
								t.Fatalf("%s tile: f64 out[%d][%d] = %v: want NaN exactly in rows 1 and 2 (a NaN weight is added) and no zero weight reaching the +Inf", path, i, j, got[e])
							}
							if nan := math.IsNaN(float64(got32[e])); nan != (nanRow || poisoned && j == 0) {
								t.Fatalf("f32 out[%d][%d] = %v, want NaN in rows 1 and 2, elsewhere only in column 0 when the +Inf sits in a group of four (%v)", i, j, got32[e], poisoned)
							}
						}
					}
				}
			})
		})
	}
}

func narrow(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
