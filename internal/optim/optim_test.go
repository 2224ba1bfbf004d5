package optim

import (
	"math"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// quadratic sets up a single parameter with loss L = 0.5*||w - target||².
func quadGrad(p *nn.Param, target []float64) {
	for i := range p.Value.Data {
		p.Grad().Data[i] += p.Value.Data[i] - target[i]
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := nn.NewParam("w", tensor.FromSlice([]float64{5, -3, 2}, 3))
	target := []float64{1, 2, 3}
	opt := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		quadGrad(p, target)
		opt.Step()
	}
	for i, w := range p.Value.Data {
		if math.Abs(w-target[i]) > 1e-4 {
			t.Errorf("w[%d] = %v, want %v", i, w, target[i])
		}
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	run := func(momentum float64) float64 {
		p := nn.NewParam("w", tensor.FromSlice([]float64{10}, 1))
		opt := NewSGD([]*nn.Param{p}, 0.01, momentum, 0)
		for i := 0; i < 50; i++ {
			quadGrad(p, []float64{0})
			opt.Step()
		}
		return math.Abs(p.Value.Data[0])
	}
	if run(0.9) >= run(0) {
		t.Error("momentum should accelerate convergence on a smooth quadratic")
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := nn.NewParam("w", tensor.FromSlice([]float64{1}, 1))
	opt := NewSGD([]*nn.Param{p}, 0.1, 0, 0.5)
	// Zero task gradient: only decay acts.
	for i := 0; i < 10; i++ {
		opt.Step()
	}
	if w := p.Value.Data[0]; w >= 1 || w <= 0 {
		t.Errorf("weight decay should shrink toward zero, got %v", w)
	}
}

func TestSGDZeroesGradAfterStep(t *testing.T) {
	p := nn.NewParam("w", tensor.FromSlice([]float64{1}, 1))
	opt := NewSGD([]*nn.Param{p}, 0.1, 0.9, 0)
	p.Grad().Data[0] = 3
	opt.Step()
	if p.Grad().Data[0] != 0 {
		t.Error("Step must clear gradients")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := nn.NewParam("w", tensor.FromSlice([]float64{5, -4}, 2))
	target := []float64{-1, 2}
	opt := NewAdam([]*nn.Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		quadGrad(p, target)
		opt.Step()
	}
	for i, w := range p.Value.Data {
		if math.Abs(w-target[i]) > 1e-3 {
			t.Errorf("w[%d] = %v, want %v", i, w, target[i])
		}
	}
}

func TestAdamHandlesSparseScales(t *testing.T) {
	// One coordinate has gradients 1000× the other; Adam should still move
	// both toward the optimum.
	p := nn.NewParam("w", tensor.FromSlice([]float64{1, 1}, 2))
	opt := NewAdam([]*nn.Param{p}, 0.05)
	for i := 0; i < 400; i++ {
		p.Grad().Data[0] += 1000 * p.Value.Data[0]
		p.Grad().Data[1] += 0.001 * p.Value.Data[1]
		opt.Step()
	}
	if math.Abs(p.Value.Data[0]) > 1e-2 {
		t.Errorf("large-scale coord did not converge: %v", p.Value.Data[0])
	}
	if p.Value.Data[1] >= 1 {
		t.Errorf("small-scale coord did not move: %v", p.Value.Data[1])
	}
}

func TestLinearRegressionEndToEnd(t *testing.T) {
	// Train a Linear layer to fit y = 2x₀ - x₁ + 0.5 with SGD.
	r := rng.New(1)
	lin := nn.NewLinear("fc", 2, 1, r)
	opt := NewSGD(lin.Params(), 0.05, 0.9, 0)
	for epoch := 0; epoch < 300; epoch++ {
		x := tensor.New(16, 2)
		r.FillNormal(x.Data, 0, 1)
		target := tensor.New(16, 1)
		for i := 0; i < 16; i++ {
			target.Data[i] = 2*x.At(i, 0) - x.At(i, 1) + 0.5
		}
		pred := lin.Forward(x, true)
		_, grad := nn.MSELoss(pred, target)
		lin.Backward(grad)
		opt.Step()
	}
	if w0 := lin.W.Value.At(0, 0); math.Abs(w0-2) > 0.02 {
		t.Errorf("w0 = %v, want 2", w0)
	}
	if w1 := lin.W.Value.At(0, 1); math.Abs(w1+1) > 0.02 {
		t.Errorf("w1 = %v, want -1", w1)
	}
	if b := lin.B.Value.Data[0]; math.Abs(b-0.5) > 0.02 {
		t.Errorf("b = %v, want 0.5", b)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParam("w", tensor.New(2))
	p.Grad().Data[0] = 3
	p.Grad().Data[1] = 4
	norm := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v, want 5", norm)
	}
	after := math.Hypot(p.Grad().Data[0], p.Grad().Data[1])
	if math.Abs(after-1) > 1e-12 {
		t.Errorf("post-clip norm = %v, want 1", after)
	}
	// Below the threshold nothing changes.
	norm2 := ClipGradNorm([]*nn.Param{p}, 10)
	if math.Abs(norm2-1) > 1e-12 || math.Abs(math.Hypot(p.Grad().Data[0], p.Grad().Data[1])-1) > 1e-12 {
		t.Error("clip below threshold should be a no-op")
	}
}

func TestStepDecaySchedule(t *testing.T) {
	sched := StepDecay(1.0, 0.5, 10)
	if sched(0) != 1.0 || sched(9) != 1.0 {
		t.Error("first period should keep base LR")
	}
	if sched(10) != 0.5 || sched(25) != 0.25 {
		t.Errorf("decay wrong: %v %v", sched(10), sched(25))
	}
}

func TestSetLR(t *testing.T) {
	p := nn.NewParam("w", tensor.New(1))
	var opts = []interface {
		SetLR(lr float64)
		LR() float64
	}{
		NewSGD([]*nn.Param{p}, 0.1, 0, 0),
		NewAdam([]*nn.Param{p}, 0.1),
	}
	for _, o := range opts {
		o.SetLR(0.01)
		if o.LR() != 0.01 {
			t.Errorf("%T LR = %v", o, o.LR())
		}
	}
}
