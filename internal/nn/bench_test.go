package nn_test

import (
	"fmt"
	"testing"

	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// BenchmarkBodyPass times one compiled pass of a seeded split.DefaultArch
// body (the CIFAR-10 kind, which keeps the max-pool) at both precisions over
// 1 and 8 rows. Its batch-norm statistics are moved off their defaults and
// its input is a seeded draw, so the panels and the im2col, pooling and
// rectifier passes around them do the work they do in serving.
func BenchmarkBodyPass(b *testing.B) {
	arch := split.DefaultArch(data.CIFAR10Like)
	body := arch.NewBody("bench", rng.New(1301))
	warm := tensor.New(4, arch.HeadC, arch.H, arch.W)
	rng.New(1302).FillNormal(warm.Data, 0, 1)
	body.Forward(warm, true)
	for _, rows := range []int{1, 8} {
		x := tensor.New(rows, arch.HeadC, arch.H, arch.W)
		rng.New(1303+int64(rows)).FillNormal(x.Data, 0, 1)
		b.Run(fmt.Sprintf("f64/rows=%d", rows), func(b *testing.B) { benchBody(b, body, x) })
		b.Run(fmt.Sprintf("f32/rows=%d", rows), func(b *testing.B) { benchBody(b, body, tensor.Narrow32(x)) })
	}
}

// benchBody times warmed passes of body compiled at x's element type.
func benchBody[T tensor.Float](b *testing.B, body *nn.Network, x *tensor.Dense[T]) {
	c, err := nn.Compile[T](body)
	if err != nil {
		b.Fatal(err)
	}
	s := c.InferScratch(x.Shape...)
	b.ReportAllocs()
	for b.Loop() {
		s.Reset()
		c.ForwardInfer(x, s)
	}
}
