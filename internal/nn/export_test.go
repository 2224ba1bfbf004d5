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

// VectorPlan runs c over x one step at a time and lists, for each step that
// carries elementwise work beside a kernel, how this host runs it: a
// convolution as "epilogue" when no batch-norm pass follows its direct
// kernel (the batch norm and ReLU, if any, are the kernel's epilogue), "go"
// when one does, "im2col" when it has no direct kernel; a pooled body's
// entry and each block's residual add and ReLU as "vector" or "go", by
// asking tensor.NormReLUPoolInto and tensor.AddReLUInto with the operands
// the step hands them.
func VectorPlan[T tensor.Float](c *Compiled[T], x *tensor.Dense[T]) []string {
	var plan []string
	form := func(vector bool) string {
		if vector {
			return "vector"
		}
		return "go"
	}
	conv := func(op convOp[T]) {
		switch {
		case op.direct == nil:
			plan = append(plan, op.name+": im2col")
		case op.norm.mean != nil:
			plan = append(plan, op.name+": go")
		default:
			plan = append(plan, op.name+": epilogue")
		}
	}
	s := &Scratch[T]{}
	for _, st := range c.steps {
		switch op := st.(type) {
		case convOp[T]:
			conv(op)
		case entryOp[T]:
			oh := tensor.ConvOutSize(x.Shape[2], op.k, op.stride, 0)
			ow := tensor.ConvOutSize(x.Shape[3], op.k, op.stride, 0)
			y := tensor.NewOf[T](x.Shape[0], x.Shape[1], oh, ow)
			plan = append(plan, "entry: "+form(tensor.NormReLUPoolInto(y, x, op.bn.mean, op.bn.inv, op.bn.gamma, op.bn.beta, op.k, op.stride)))
		case blockOp[T]:
			conv(op.conv1)
			conv(op.conv2)
			main, short := op.conv2.infer(op.conv1.infer(x, s), s), x
			if op.short {
				conv(op.shortConv)
				short = op.shortConv.infer(x, s)
			}
			plan = append(plan, "residual: "+form(tensor.AddReLUInto(tensor.NewOf[T](main.Shape...), main, short)))
		}
		x = st.infer(x, s)
	}
	return plan
}
