package tensor_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// convStacks are what TestCompiledConvMatchesPanel puts after the conv.
var convStacks = []struct {
	name           string
	bias, bn, relu bool
}{
	{"conv", true, false, false},
	{"conv+bn+relu", true, true, true},
	{"nobias conv", false, false, false},
	{"nobias conv+bn", false, true, false},
	{"nobias conv+bn+relu", false, true, true},
}

// TestCompiledConvMatchesPanel holds the compiled convolution at both
// precisions — the direct kernel, over the weights Compile packs for it —
// to ConvForwardInto over the standard-layout weights at that precision,
// bit for bit: every conv geometry of both DefaultArch kinds and of
// TinyArch, plus geometries with a k mod 4 tail, output channel counts that
// are not a multiple of 8 (nor of 4) and a non-square window, at 1 and 8
// rows. The weights hold +0 and −0, some in groups of four and in the tail
// of every other output channel; the activations hold +0, −0 and negatives,
// and three of the eight images a NaN, a +Inf or a −Inf, so a zero weight
// in a group meets an Inf on a valid tap (NaN at float32) while a zero tail
// weight, and at float64 every zero weight, skips it. It runs once per path
// the kernels can take on this host (WithAVX2). Each geometry also tries
// one weight +Inf and one NaN, at weight row 0, whose window tap lies in
// the padding of every top-row position: the panel multiplies it by the
// padding's +0 into NaN, which the direct kernel does not compute, so
// Compile[float32] must refuse the layer, naming it, and Compile[float64]
// must keep the panel. Each case also compiles the conv followed by a batch
// norm (seeded statistics, one gamma zero) and by a batch norm and a ReLU,
// with and without the conv's bias, and holds each to its composition:
// ConvForwardInto, then the compiled batch norm alone, then tensor.ReLU.
// Without a bias the direct kernel applies them as its epilogue; with one,
// and on the f64 panel, a Go pass does.
func TestCompiledConvMatchesPanel(t *testing.T) {
	type geom struct{ outC, c, h, w, kh, kw, stride, pad int }
	geoms := map[string]geom{}
	for _, a := range []struct {
		name string
		arch split.Arch
	}{
		{"cifar10", split.DefaultArch(data.CIFAR10Like)},
		{"cifar100", split.DefaultArch(data.CIFAR100Like)},
		{"tiny", commtest.TinyArch()},
	} {
		for i, w := range archWindows(a.arch) {
			if w.outC > 0 {
				geoms[fmt.Sprintf("%s/%d", a.name, i)] = geom(w)
			}
		}
	}
	geoms["tail/outC=12"] = geom{12, 5, 7, 6, 3, 3, 1, 1}
	geoms["tail/outC=3"] = geom{3, 3, 5, 5, 3, 3, 2, 1}
	geoms["outC=20"] = geom{20, 16, 4, 4, 3, 3, 1, 1}
	geoms["nonsquare/outC=9"] = geom{9, 6, 5, 7, 2, 3, 1, 1}
	geoms["tail/outC=6"] = geom{6, 4, 6, 6, 3, 3, 1, 1}
	nan := tensor.HardwareNaN()
	for name, g := range geoms {
		for _, weight := range []string{"finite", "inf", "nan"} {
			t.Run(fmt.Sprintf("%s/%dx%dx%d_k%dx%d_s%d_p%d/%s", name, g.outC, g.c, g.h, g.kh, g.kw, g.stride, g.pad, weight), func(t *testing.T) {
				r := rng.New(int64(g.outC*7919 + g.c*131 + g.h*17 + g.kw))
				k := g.c * g.kh * g.kw
				conv := &nn.Conv2D{InC: g.c, OutC: g.outC, KH: g.kh, KW: g.kw, Stride: g.stride, Pad: g.pad,
					W: nn.NewParam("w", tensor.New(g.outC, k)), B: nn.NewParam("b", tensor.New(g.outC))}
				w := conv.W.Value.Data
				r.FillNormal(w, 0, 1)
				r.FillNormal(conv.B.Value.Data, 0, 1)
				for i := range w {
					if i%7 == 3 {
						w[i] = 0
					}
					if i%11 == 5 {
						w[i] = math.Copysign(0, -1)
					}
				}
				for o := 1; o < g.outC; o += 2 {
					w[o*k+k-1] = math.Copysign(0, float64(o%4-2))
				}
				switch weight {
				case "inf":
					w[min(1, g.outC-1)*k] = math.Inf(1)
				case "nan":
					w[0] = nan
				}
				bn := nn.NewBatchNorm2D("bn", g.outC)
				for _, v := range [][]float64{bn.RunMean.Data, bn.Gamma.Value.Data, bn.Beta.Value.Data} {
					r.FillNormal(v, 0, 1)
				}
				for o := range bn.RunVar.Data {
					bn.RunVar.Data[o] = 0.1 + math.Abs(r.Normal(0, 1))
				}
				bn.Gamma.Value.Data[0] = 0
				for _, st := range convStacks {
					conv := *conv
					if !st.bias {
						conv.B = nil
					}
					layers := []nn.Layer{&conv}
					if st.bn {
						layers = append(layers, bn)
					}
					if st.relu {
						layers = append(layers, nn.NewReLU())
					}
					net := nn.NewNetwork("conv", layers...)
					c64, err := nn.Compile[float64](net)
					if err != nil {
						t.Fatalf("%s: Compile[float64] with a %s weight: %v", st.name, weight, err)
					}
					c32, err := nn.Compile[float32](net)
					if weight != "finite" {
						if err == nil || !strings.Contains(err.Error(), "Conv2D w:") {
							t.Fatalf("%s: Compile[float32] with a %s weight: error %v, want a refusal naming Conv2D w", st.name, weight, err)
						}
					} else if err != nil {
						t.Fatal(err)
					}
					// then is the stack's definition after the convolution:
					// the compiled batch norm on its own (bnOp.infer), then
					// ReLU.
					then64 := func(y *tensor.Tensor) *tensor.Tensor { return y }
					then32 := func(y *tensor.Tensor32) *tensor.Tensor32 { return y }
					if st.bn {
						bn64, err1 := nn.Compile[float64](nn.NewNetwork("bn", bn))
						bn32, err2 := nn.Compile[float32](nn.NewNetwork("bn", bn))
						if err1 != nil || err2 != nil {
							t.Fatal(err1, err2)
						}
						then64 = func(y *tensor.Tensor) *tensor.Tensor { return bn64.ForwardInfer(y, nn.NewScratch()) }
						then32 = func(y *tensor.Tensor32) *tensor.Tensor32 {
							return bn32.ForwardInfer(y, new(nn.Scratch[float32]))
						}
					}
					var b64 *tensor.Tensor
					var b32 *tensor.Tensor32
					if conv.B != nil {
						b64, b32 = conv.B.Value, tensor.Narrow32(conv.B.Value)
					}
					w32 := tensor.Narrow32(conv.W.Value)
					for _, rows := range []int{1, 8} {
						x := tensor.New(rows, g.c, g.h, g.w)
						r.FillNormal(x.Data, 0, 1)
						for i := range x.Data {
							switch i % 13 {
							case 2:
								x.Data[i] = 0
							case 9:
								x.Data[i] = math.Copysign(0, -1)
							}
						}
						// Images 1–3 of 8 hold a NaN, +Inf and −Inf at the centre
						// of the last channel, whose weight rows hold the tail.
						per := g.c * g.h * g.w
						for img, v := range map[int]float64{1: nan, 2: math.Inf(1), 3: math.Inf(-1)} {
							if img < rows {
								x.Data[img*per+per-g.h*g.w+g.h/2*g.w+g.w/2] = v
							}
						}
						oh, ow := tensor.ConvOutSize(g.h, g.kh, g.stride, g.pad), tensor.ConvOutSize(g.w, g.kw, g.stride, g.pad)
						want := then64(tensor.ConvForwardInto(tensor.New(rows, g.outC, oh, ow), x, conv.W.Value, b64,
							tensor.New(k, oh*ow), g.kh, g.kw, g.stride, g.pad))
						if st.relu {
							tensor.ReLU(want.Data, want.Data)
						}
						tensor.WithAVX2(func(path string) {
							got := c64.ForwardInfer(x, nn.NewScratch())
							finite := 0
							for i, v := range got.Data {
								if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
									t.Fatalf("f64 %s %s, %d rows: out %d = %v (%#x), panel %v (%#x)",
										st.name, path, rows, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
								}
								if !math.IsNaN(v) && !math.IsInf(v, 0) {
									finite++
								}
							}
							if weight == "finite" && finite < len(got.Data)/2 {
								t.Fatalf("f64 %s %s, %d rows: only %d of %d outputs finite", st.name, path, rows, finite, len(got.Data))
							}
						})
						if c32 == nil {
							continue
						}
						x32 := tensor.Narrow32(x)
						want32 := then32(tensor.ConvForwardInto(tensor.NewOf[float32](rows, g.outC, oh, ow), x32, w32, b32,
							tensor.NewOf[float32](k, oh*ow), g.kh, g.kw, g.stride, g.pad))
						if st.relu {
							tensor.ReLU(want32.Data, want32.Data)
						}
						tensor.WithAVX2(func(path string) {
							got := c32.ForwardInfer(x32, new(nn.Scratch[float32]))
							finite := 0
							for i, v := range got.Data {
								if math.Float32bits(v) != math.Float32bits(want32.Data[i]) {
									t.Fatalf("%s %s, %d rows: out %d = %v (%#x), panel %v (%#x)",
										st.name, path, rows, i, v, math.Float32bits(v), want32.Data[i], math.Float32bits(want32.Data[i]))
								}
								if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
									finite++
								}
							}
							if finite < len(got.Data)/2 {
								t.Fatalf("%s %s, %d rows: only %d of %d outputs finite", st.name, path, rows, finite, len(got.Data))
							}
						})
					}
				}
			})
		}
	}
}
