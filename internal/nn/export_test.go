package nn

import "ensembler/internal/tensor"

// CompiledSteps reports how many steps c runs, so the external tests can see
// which layers Compile fused.
func CompiledSteps[T tensor.Float](c *Compiled[T]) int { return len(c.steps) }

// ConvPacked reports whether compiling c at T packs its weights for the
// direct kernel, holding no standard-layout copy beside them.
func ConvPacked[T tensor.Float](c *Conv2D) bool {
	op, err := castConv[T](c.inferOp())
	return err == nil && op.direct != nil && op.w == nil
}

// ConvViewsLiveWeights reports whether compiling c at float64 keeps the
// im2col panel over c's own weight tensor.
func ConvViewsLiveWeights(c *Conv2D) bool {
	op, err := castConv[float64](c.inferOp())
	return err == nil && op.direct == nil && op.w == c.W.Value
}

// HasGrad reports whether p holds gradient storage.
func HasGrad(p *Param) bool { return p.grad != nil }
