package nn

import "ensembler/internal/tensor"

// CompiledSteps reports how many steps c runs, so the external tests can see
// which layers Compile fused.
func CompiledSteps[T tensor.Float](c *Compiled[T]) int { return len(c.steps) }
