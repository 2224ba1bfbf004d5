package ensemble

import (
	"fmt"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// The nn substrate caches forward activations inside each layer, so a live
// network is safe for one goroutine at a time. Serving does not need copies
// for that — a comm server compiles the bodies once into a read-only form
// (nn.Compile) that every worker shares — but the client half does:
// NewClientRuntime clones the client networks for one pooled connection.
// CloneBodies serves the callers that run the caching Forward over the
// bodies while others may be using them: oracles and the audit's attack
// replay.

// CloneBodies builds a fresh copy of the N server bodies: identical weights
// and batch-norm running statistics, but brand-new layer objects with
// private forward caches. Each call returns an independent set.
func (e *Ensembler) CloneBodies() []*nn.Network {
	out := make([]*nn.Network, len(e.Members))
	r := rng.New(0) // initialization is immediately overwritten
	for i, m := range e.Members {
		clone := e.Cfg.Arch.NewBody(fmt.Sprintf("replica%d.body", i), r)
		if err := clone.CopyStateFrom(m.Body); err != nil {
			panic(fmt.Sprintf("ensemble: cloning body %d: %v", i, err))
		}
		out[i] = clone
	}
	return out
}

// ClientRuntime is an independent copy of the client-side half of a trained
// pipeline — final head, fixed noise, secret selector, and tail — safe for
// exclusive use by one goroutine. The selector is shared (it is read-only at
// inference time); the networks are cloned.
//
// The runtime owns its inference storage, sized by the first pass: Features
// and Select each return a tensor living in the runtime, valid until the next
// call of the SAME method — neither resets the other's storage, so each may
// be called on its own in any order. A caller that keeps a result longer
// clones it.
type ClientRuntime struct {
	Head     *nn.Network
	Noise    *nn.AdditiveNoise
	Selector *Selector
	Tail     *nn.Network

	head nn.Scratch[float64]   // Features: head and noise activations
	sel  tensor.Arena[float64] // Select: the tail input
}

// NewClientRuntime clones the client-side networks of a trained pipeline.
// Each call returns an independent runtime, so a client connection pool
// calls it once per connection.
func (e *Ensembler) NewClientRuntime() *ClientRuntime {
	r := rng.New(0) // initialization is immediately overwritten
	head := e.Cfg.Arch.NewHead("runtime.head", r)
	if err := head.CopyStateFrom(e.Head); err != nil {
		panic(fmt.Sprintf("ensemble: cloning head: %v", err))
	}
	tail := e.Cfg.Arch.NewTail("runtime.tail", e.Cfg.P, e.Cfg.Dropout, r)
	if err := tail.CopyStateFrom(e.Tail); err != nil {
		panic(fmt.Sprintf("ensemble: cloning tail: %v", err))
	}
	rt := &ClientRuntime{Head: head, Selector: e.Selector, Tail: tail}
	if e.Noise != nil {
		c, h, w := e.Cfg.Arch.HeadOutShape()
		rt.Noise = nn.NewAdditiveNoise("runtime.noise", nn.NoiseFixed, c, h, w, e.Cfg.Sigma, rng.New(0))
		copy(rt.Noise.Noise.Value.Data, e.Noise.Noise.Value.Data)
	}
	return rt
}

// Features computes the transmitted intermediate representation
// Mc,h(x)+noise in inference mode — bit-identical to
// Ensembler.ClientFeatures, which stays on the training entry as the oracle.
// The result lives in the runtime until the next Features call.
func (rt *ClientRuntime) Features(x *tensor.Tensor) *tensor.Tensor {
	rt.head.Reset()
	f := rt.Head.ForwardInfer(x, &rt.head)
	if rt.Noise != nil {
		f = rt.Noise.ForwardInfer(f, &rt.head)
	}
	return f
}

// Select applies the secret selection (Eq. 1) to the N server feature
// matrices. The result lives in the runtime until the next Select call.
func (rt *ClientRuntime) Select(features []*tensor.Tensor) *tensor.Tensor {
	rt.sel.Reset()
	return rt.Selector.ApplyInto(&rt.sel, features)
}

// Predict runs the full pipeline locally through the cloned networks —
// the runtime analogue of Ensembler.Predict, used to cross-check remote
// results. The logits are a fresh tensor the caller owns.
func (rt *ClientRuntime) Predict(x *tensor.Tensor, bodies []*nn.Network) *tensor.Tensor {
	feats := make([]*tensor.Tensor, len(bodies))
	f := rt.Features(x)
	for i, b := range bodies {
		feats[i] = b.Forward(f, false)
	}
	return rt.Tail.Forward(rt.Select(feats), false)
}
