package nn_test

import (
	"bytes"
	"testing"

	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// TestLoadedPipelineHoldsNoGradients pins gradients allocated on first use:
// a DefaultConfig pipeline (N = 10) read back by ensemble.Load, as a server
// loads one, holds no gradient storage in any parameter, and ZeroGrad
// leaves it so. One training Forward and Backward through one body then
// allocates the gradients of that body's parameters, and of no other's.
func TestLoadedPipelineHoldsNoGradients(t *testing.T) {
	var saved bytes.Buffer
	if err := ensemble.New(ensemble.DefaultConfig(data.CIFAR10Like, 3)).Save(&saved); err != nil {
		t.Fatal(err)
	}
	e, err := ensemble.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	params := append(e.Head.Params(), e.Tail.Params()...)
	if e.Noise != nil {
		params = append(params, e.Noise.Params()...)
	}
	for _, m := range e.Members {
		m.Body.ZeroGrad()
		params = append(params, m.Params()...)
	}
	for _, p := range params {
		if nn.HasGrad(p) {
			t.Errorf("loaded %s holds a gradient", p.Name)
		}
	}

	arch := e.Cfg.Arch
	x := tensor.New(2, arch.HeadC, arch.H, arch.W)
	rng.New(7).FillNormal(x.Data, 0, 1)
	body := e.Members[0].Body
	y := body.Forward(x, true)
	body.Backward(tensor.Full(1, y.Shape...))
	for _, p := range body.Params() {
		if !nn.HasGrad(p) {
			t.Errorf("%s holds no gradient after Backward", p.Name)
		}
	}
	for _, p := range e.Members[1].Body.Params() {
		if nn.HasGrad(p) {
			t.Errorf("%s holds a gradient after another body's Backward", p.Name)
		}
	}
}
