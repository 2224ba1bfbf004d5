package nn

import "ensembler/internal/tensor"

// CompiledSteps reports how many steps c runs, so the external tests can see
// which layers Compile fused.
func CompiledSteps[T tensor.Float](c *Compiled[T]) int { return len(c.steps) }

// ConvPacked reports whether compiling c at T packs its weights for the
// direct kernel, holding no standard-layout copy beside them.
func ConvPacked[T tensor.Float](c *Conv2D) bool {
	op := castConv[T](c.inferOp())
	return op.direct != nil && op.w == nil
}
