// Package nn implements the neural-network substrate of the Ensembler
// reproduction: layers with explicit Forward/Backward passes, parameter
// management, losses, and (de)serialization. The design is layer-wise
// backpropagation rather than a tape-based autograd: every layer caches what
// its backward pass needs, and Backward both accumulates parameter gradients
// and returns the gradient with respect to its input. Returning input
// gradients all the way to the image is what lets the attack package run
// optimization-based model inversion.
//
// Each layer's forward arithmetic exists once, as the generic op in
// infer.go: training Forward, (*Network).ForwardInfer and Compile[T] all run
// it (see the top of infer.go for the three entry points and their memory
// models).
package nn

import (
	"fmt"

	"ensembler/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient. Optimizers
// update Value from Grad; Backward passes accumulate (+=) into Grad so
// multi-branch architectures combine naturally.
//
// The gradient's storage is allocated on first use: a process that only
// runs inference, such as a server holding N bodies, never pays for it.
type Param struct {
	Name  string
	Value *tensor.Tensor
	grad  *tensor.Tensor // nil until Grad is first called
}

// NewParam returns a parameter over value with no gradient storage yet.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value}
}

// Grad returns the accumulated gradient, of Value's shape, allocating it
// zeroed on first use. It is not safe for concurrent first use.
func (p *Param) Grad() *tensor.Tensor {
	if p.grad == nil {
		p.grad = tensor.New(p.Value.Shape...)
	}
	return p.grad
}

// ZeroGrad clears the accumulated gradient; one never allocated is already
// zero.
func (p *Param) ZeroGrad() {
	if p.grad != nil {
		p.grad.Zero()
	}
}

// Layer is a differentiable module. Forward computes outputs, caching
// whatever Backward needs; train selects training-time behaviour (batch-norm
// statistics, dropout masks). Backward consumes dL/d(output) and returns
// dL/d(input), accumulating parameter gradients as a side effect. A Backward
// call must follow the Forward call whose cache it consumes.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Network is an ordered stack of layers with a name, usable both as a whole
// model and as one segment (head/body/tail) of a split pipeline.
type Network struct {
	Name   string
	Layers []Layer
}

// NewNetwork builds a network from the given layers.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{Name: name, Layers: layers}
}

// Forward runs the stack in order.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the stack in reverse, returning dL/d(input).
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Size()
	}
	return total
}

// Append adds layers to the end of the network and returns it.
func (n *Network) Append(layers ...Layer) *Network {
	n.Layers = append(n.Layers, layers...)
	return n
}

// Var n implements Layer itself so networks nest as blocks.
var _ Layer = (*Network)(nil)

// String summarizes the network for logs.
func (n *Network) String() string {
	return fmt.Sprintf("Network(%s, %d layers, %d params)", n.Name, len(n.Layers), n.NumParams())
}
