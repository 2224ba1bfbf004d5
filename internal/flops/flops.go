// Package flops provides analytic cost accounting for the latency study
// (Table III): per-layer floating-point operation counts and activation
// sizes for the full ResNet-18 the paper benchmarks. The training substrate
// uses scaled-down networks, but the latency model runs on the real
// ResNet-18 shape so the compute/communication split matches the paper's
// setting (batch of 128 images, h=1/t=1 split).
package flops

import "fmt"

// LayerCost is the analytic cost of one layer at a given input size.
type LayerCost struct {
	Name     string
	FLOPs    float64 // multiply-accumulates counted as 2 ops
	OutBytes float64 // activation size, 4-byte floats
	OutC     int
	OutH     int
	OutW     int
}

// Spec is an ordered list of layer costs with a recorded split point.
type Spec struct {
	Name   string
	Layers []LayerCost
	// HeadEnd and TailStart delimit the client/server split: layers
	// [0,HeadEnd) run on the client (Mc,h), [HeadEnd,TailStart) on the
	// server (Ms), [TailStart,len) back on the client (Mc,t).
	HeadEnd   int
	TailStart int
}

// conv appends a convolution cost: FLOPs = 2·K²·Cin·Cout·Hout·Wout (+bias).
func (s *Spec) conv(name string, inC, outC, k, stride, pad, inH, inW int, bias bool) (int, int) {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	fl := float64(2 * float64(k*k*inC) * float64(outC) * float64(outH*outW))
	if bias {
		fl += float64(outC * outH * outW)
	}
	s.Layers = append(s.Layers, LayerCost{
		Name: name, FLOPs: fl, OutBytes: 4 * float64(outC*outH*outW),
		OutC: outC, OutH: outH, OutW: outW,
	})
	return outH, outW
}

// simple appends an elementwise/normalization layer costing opsPerElem per
// output element.
func (s *Spec) simple(name string, c, h, w int, opsPerElem float64) {
	n := float64(c * h * w)
	s.Layers = append(s.Layers, LayerCost{
		Name: name, FLOPs: opsPerElem * n, OutBytes: 4 * n, OutC: c, OutH: h, OutW: w,
	})
}

// linear appends a fully connected layer.
func (s *Spec) linear(name string, in, out int) {
	s.Layers = append(s.Layers, LayerCost{
		Name: name, FLOPs: float64(2*float64(in)*float64(out)) + float64(out),
		OutBytes: 4 * float64(out), OutC: out, OutH: 1, OutW: 1,
	})
}

// basicBlock appends a ResNet BasicBlock (two 3×3 convs + BNs + ReLUs and a
// projection shortcut when shape changes), returning the output spatial size.
func (s *Spec) basicBlock(name string, inC, outC, stride, h, w int) (int, int) {
	oh, ow := s.conv(name+".conv1", inC, outC, 3, stride, 1, h, w, false)
	s.simple(name+".bn1", outC, oh, ow, 2)
	s.simple(name+".relu1", outC, oh, ow, 1)
	s.conv(name+".conv2", outC, outC, 3, 1, 1, oh, ow, false)
	s.simple(name+".bn2", outC, oh, ow, 2)
	if stride != 1 || inC != outC {
		s.conv(name+".short", inC, outC, 1, stride, 0, h, w, false)
		s.simple(name+".shortbn", outC, oh, ow, 2)
	}
	s.simple(name+".add+relu", outC, oh, ow, 2)
	return oh, ow
}

// ResNet18 builds the full ResNet-18 cost spec for inputSize×inputSize RGB
// images with the paper's split (client: first conv; server: everything up
// to global average pooling; client: final FC). useMaxPool mirrors the
// paper's §IV-A: present for CIFAR-10/CelebA, removed for CIFAR-100.
func ResNet18(inputSize, classes int, useMaxPool bool) *Spec {
	s := &Spec{Name: fmt.Sprintf("resnet18-%dpx", inputSize)}
	h, w := inputSize, inputSize

	// Client head Mc,h: one 3×3/stride-1 convolution, 64 channels, plus the
	// parameter-free max pool when present — the paper reports the CIFAR-10
	// transmitted feature as [64,16,16], i.e. post-pool, so the pool sits on
	// the client side of the wire in the cost model.
	h, w = s.conv("head.conv1", 3, 64, 3, 1, 1, h, w, true)
	if useMaxPool {
		h, w = h/2, w/2
		s.simple("head.maxpool", 64, h, w, 1)
	}
	s.HeadEnd = len(s.Layers)

	// Server body Ms.
	s.simple("body.bn1", 64, h, w, 2)
	s.simple("body.relu1", 64, h, w, 1)
	widths := []int{64, 64, 128, 128, 256, 256, 512, 512}
	in := 64
	for i, outC := range widths {
		stride := 1
		if i > 0 && outC != in {
			stride = 2
		}
		h, w = s.basicBlock(fmt.Sprintf("body.block%d", i), in, outC, stride, h, w)
		in = outC
	}
	s.simple("body.gap", 512, 1, 1, float64(h*w))
	s.TailStart = len(s.Layers)

	// Client tail Mc,t: the final FC.
	s.linear("tail.fc", 512, classes)
	return s
}

// segment sums FLOPs over layer range [lo, hi).
func (s *Spec) segment(lo, hi int) float64 {
	total := 0.0
	for _, l := range s.Layers[lo:hi] {
		total += l.FLOPs
	}
	return total
}

// HeadFLOPs returns client-head compute per image.
func (s *Spec) HeadFLOPs() float64 { return s.segment(0, s.HeadEnd) }

// BodyFLOPs returns server compute per image for one body.
func (s *Spec) BodyFLOPs() float64 { return s.segment(s.HeadEnd, s.TailStart) }

// TailFLOPs returns client-tail compute per image.
func (s *Spec) TailFLOPs() float64 { return s.segment(s.TailStart, len(s.Layers)) }

// FeatureBytes returns the size of the transmitted intermediate activation
// (the head's output) per image.
func (s *Spec) FeatureBytes() float64 { return s.Layers[s.HeadEnd-1].OutBytes }

// ServerReturnBytes returns the per-image size of what one server body sends
// back to the client (the 512-float penultimate feature vector).
func (s *Spec) ServerReturnBytes() float64 { return 4 * 512 }
