package audit

import (
	"math"
	"testing"

	"ensembler/internal/attack"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// TestPrecisionDriftSeedNetwork is the precision property test for the f32
// compute backend: the full seed pipeline — client head + fixed noise (always
// f64), every server body, and the concat tail — forwarded in f64 and in f32
// across 100 random inputs, with every body feature and every final logit
// within the 1e-5 relative drift budget the serving stack promises
// (DESIGN.md §2i).
func TestPrecisionDriftSeedNetwork(t *testing.T) {
	const trials, budget = 100, 1e-5
	pipe := commtest.Pipeline(commtest.TinyArch(), 4, 2, 31)
	rt := pipe.NewClientRuntime()
	bodies := pipe.Bodies()
	tail := commtest.Tail(commtest.TinyArch(), len(bodies))

	bodies32 := make([]*nn.Compiled[float32], len(bodies))
	for i, b := range bodies {
		n32, err := nn.CompileF32(b)
		if err != nil {
			t.Fatalf("body %d: CompileF32: %v", i, err)
		}
		bodies32[i] = n32
	}
	s64 := nn.NewScratch()
	s32 := nn.NewScratch32()
	r := rng.New(32)
	for trial := 0; trial < trials; trial++ {
		x := tensor.New(1, 3, 8, 8)
		r.FillNormal(x.Data, 0, 1)
		feat := rt.Features(x)

		outs64 := make([]*tensor.Tensor, len(bodies))
		outs32w := make([]*tensor.Tensor, len(bodies))
		for i, b := range bodies {
			want := b.ForwardInfer(feat, s64)
			got := bodies32[i].ForwardInfer(tensor.Narrow32(feat), s32)
			if len(got.Data) != len(want.Data) {
				t.Fatalf("trial %d body %d: f32 shape %v, f64 %v", trial, i, got.Shape, want.Shape)
			}
			for k, v := range got.Data {
				if e := math.Abs(float64(v)-want.Data[k]) / math.Max(1, math.Abs(want.Data[k])); e > budget {
					t.Fatalf("trial %d body %d feature %d: drift %.3g relative (f32 %v vs f64 %v)",
						trial, i, k, e, v, want.Data[k])
				}
			}
			outs64[i] = want.Clone()
			outs32w[i] = tensor.Widen64(got)
			s64.Reset()
			s32.Reset()
		}

		// Through the tail: the client-side concat+linear head consumes the
		// widened f32 features exactly as a production client consumes an f32
		// server's response, and the logits must stay inside the same budget.
		want := tail.Forward(nn.ConcatFeatures(outs64), false)
		got := tail.Forward(nn.ConcatFeatures(outs32w), false)
		for k, v := range got.Data {
			if e := math.Abs(v-want.Data[k]) / math.Max(1, math.Abs(want.Data[k])); e > budget {
				t.Fatalf("trial %d logit %d: drift %.3g relative (f32 path %v vs f64 %v)",
					trial, k, e, v, want.Data[k])
			}
		}
	}
}

// TestPrecisionAttackSSIMUnchanged bounds what precision does to the
// leakage score: the oracle inversion attack against features rounded to
// float32 (what an f32-compute, f32-wire deployment actually transmits) must
// score within 0.05 SSIM of the f64 attack Score runs. A drift larger than
// that could flip the reported alert on precision alone, which would make
// the publish-time score describe a pipeline that never serves.
func TestPrecisionAttackSSIMUnchanged(t *testing.T) {
	pipe := commtest.Pipeline(commtest.TinyArch(), 4, 2, 33)
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 32, Test: 16, Seed: 11})
	floor := CalibrationFloor(sp.Test, 8)

	rt64 := pipe.NewClientRuntime()
	victim64 := runtimeVictim{features: rt64.Features}
	rt32 := pipe.NewClientRuntime()
	victim32 := runtimeVictim{features: func(x *tensor.Tensor) *tensor.Tensor {
		return tensor.Widen64(tensor.Narrow32(rt32.Features(x)))
	}}

	cfg := attackConfigTiny()
	cfg.Arch = pipe.Cfg.Arch
	out64 := attack.OracleDecoderAttack(cfg, victim64, sp.Aux, sp.Test, 8)
	out32 := attack.OracleDecoderAttack(cfg, victim32, sp.Aux, sp.Test, 8)
	for _, o := range []attack.Outcome{out64, out32} {
		if o.SSIM < -1 || o.SSIM > 1 {
			t.Fatalf("attack SSIM %v out of range", o.SSIM)
		}
	}
	// Scores this close cannot by themselves cross a sensibly margined
	// threshold, so f32 serving stays auditable with thresholds calibrated
	// on the f64 oracle.
	const tol = 0.05
	if d := math.Abs(out64.SSIM - out32.SSIM); d > tol {
		t.Fatalf("attack on f32-rounded features scores %.4f vs %.4f on f64 (Δ %.4f > %.2f, floor %.3f)",
			out32.SSIM, out64.SSIM, d, tol, floor)
	}
}
