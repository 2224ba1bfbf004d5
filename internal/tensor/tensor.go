// Package tensor implements the dense numeric arrays that the rest of the
// Ensembler reproduction is built on: contiguous, row-major tensors with the
// elementwise arithmetic, matrix multiplication and im2col/col2im transforms
// needed to train and invert split convolutional networks on the CPU. All
// operations are deterministic; parallel kernels split work in fixed chunk
// order so results do not depend on scheduling.
//
// The package is written once over the element type (Float): Tensor, the
// float64 instantiation, is what training, the attacks and serialization use
// and the oracle every other precision is tested against; Tensor32 is the
// float32 instantiation the f32 serving backend computes in (DESIGN.md §2i).
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Float is the element-type constraint of the compute stack. float32 and
// float64 have distinct GC shapes, so every generic function compiles to one
// monomorphic body per precision.
type Float interface{ ~float32 | ~float64 }

// Dense is a dense row-major array. Shape holds the extent of each
// dimension; Data holds len = product(Shape) values. Both fields are
// exported so tensors serialize directly with encoding/gob (gob matches
// struct fields by name, so artifacts written when Tensor was a plain struct
// still load).
type Dense[T Float] struct {
	Shape []int
	Data  []T
}

// Tensor is the float64 tensor: the precision of training, the attacks,
// serialization, and the reference oracle of every drift test.
type Tensor = Dense[float64]

// Tensor32 is the float32 tensor of the f32 serving backend. Precision
// contract (DESIGN.md §2i): a Tensor32 holds values rounded once from their
// float64 origins (weights at compile time, features at the wire boundary);
// kernels accumulate in float32, and the end-to-end forward drift against the
// f64 oracle is bounded at 1e-5 relative by the property tests in internal/nn
// and the seed-network test in internal/audit.
type Tensor32 = Dense[float32]

// numElems returns the number of elements implied by shape, validating that
// every dimension is positive.
func numElems(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// NewOf returns a zero-filled tensor of element type T with the given shape.
func NewOf[T Float](shape ...int) *Dense[T] {
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: make([]T, numElems(shape))}
}

// New returns a zero-filled float64 tensor with the given shape.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// ConvertInto writes src into the caller-owned dst (sizes must match),
// converting each element exactly once: float64→float32 rounds to nearest,
// float32→float64 is exact.
func ConvertInto[D, S Float](dst *Dense[D], src *Dense[S]) *Dense[D] {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: ConvertInto size %d vs %d", len(dst.Data), len(src.Data)))
	}
	for i, v := range src.Data {
		dst.Data[i] = D(v)
	}
	return dst
}

// Narrow32 rounds a float64 tensor to a freshly allocated float32 tensor —
// weight compilation and the f32 wire boundary.
func Narrow32(t *Tensor) *Tensor32 { return ConvertInto(NewOf[float32](t.Shape...), t) }

// Widen64 converts a float32 tensor to a freshly allocated float64 tensor,
// exactly (every float32 is representable in float64).
func Widen64(t *Tensor32) *Tensor { return ConvertInto(NewOf[float64](t.Shape...), t) }

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data (copied) in a tensor of the given shape. It panics if
// len(data) does not match the shape.
func FromSlice[T Float](data []T, shape ...int) *Dense[T] {
	if len(data) != numElems(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: append([]T(nil), data...)}
}

// Clone returns a deep copy of t.
func (t *Dense[T]) Clone() *Dense[T] {
	return &Dense[T]{Shape: append([]int(nil), t.Shape...), Data: append([]T(nil), t.Data...)}
}

// Size returns the total number of elements.
func (t *Dense[T]) Size() int { return len(t.Data) }

// SameShape reports whether t and o have identical shapes.
func (t *Dense[T]) SameShape(o *Dense[T]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// offset converts a multi-index to a flat offset.
func (t *Dense[T]) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Dense[T]) At(idx ...int) T { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Dense[T]) Set(v T, idx ...int) { t.Data[t.offset(idx)] = v }

// Reshape returns a view of t with a new shape of equal size. The returned
// tensor ALIASES t: both share one backing Data array, so a write through
// either is visible in the other. Only the header and shape are fresh.
// Callers that need an independent copy must Clone first; the layer that
// deliberately relies on the aliasing (nn.Flatten — a reshape in a forward
// pass must not copy activations) annotates it at the call site.
func (t *Dense[T]) Reshape(shape ...int) *Dense[T] {
	if numElems(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Dense[T]{Shape: append([]int(nil), shape...), Data: t.Data}
}

// String renders a short description (shape plus a few leading values), keeping
// logs readable for large tensors.
func (t *Dense[T]) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v...", t.Shape, t.Data[:n])
}

// checkSame panics unless t and o share a shape; op names the caller.
func (t *Dense[T]) checkSame(o *Dense[T], op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}

// AddInPlace adds o into t elementwise and returns t.
func (t *Dense[T]) AddInPlace(o *Dense[T]) *Dense[T] {
	t.checkSame(o, "Add")
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// SubInPlace subtracts o from t elementwise and returns t.
func (t *Dense[T]) SubInPlace(o *Dense[T]) *Dense[T] {
	t.checkSame(o, "Sub")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Add returns t + o elementwise.
func (t *Dense[T]) Add(o *Dense[T]) *Dense[T] { return t.Clone().AddInPlace(o) }

// Sub returns t - o elementwise.
func (t *Dense[T]) Sub(o *Dense[T]) *Dense[T] { return t.Clone().SubInPlace(o) }

// ScaleInPlace multiplies every element by s and returns t.
func (t *Dense[T]) ScaleInPlace(s T) *Dense[T] {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// Scale returns s * t.
func (t *Dense[T]) Scale(s T) *Dense[T] { return t.Clone().ScaleInPlace(s) }

// AddScaledInPlace performs t += s*o elementwise and returns t. This is the
// axpy primitive used by the optimizers.
func (t *Dense[T]) AddScaledInPlace(o *Dense[T], s T) *Dense[T] {
	t.checkSame(o, "AddScaled")
	for i, v := range o.Data {
		t.Data[i] += s * v
	}
	return t
}

// Apply returns a new tensor with f applied to every element.
func (t *Dense[T]) Apply(f func(T) T) *Dense[T] {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Zero resets all elements to 0.
func (t *Dense[T]) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Sum returns the sum of all elements.
func (t *Dense[T]) Sum() T {
	var s T
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Dense[T]) Mean() T { return t.Sum() / T(len(t.Data)) }

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Dense[T]) Dot(o *Dense[T]) T {
	t.checkSame(o, "Dot")
	var s T
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}

// L2Norm returns the Euclidean norm of t viewed as a flat vector.
func (t *Dense[T]) L2Norm() T { return T(math.Sqrt(float64(t.Dot(t)))) }

// AllClose reports whether every element of t is within tol of o.
func (t *Dense[T]) AllClose(o *Dense[T], tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(float64(v-o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// parallelFor runs body(i) for i in [0, n), splitting the range across
// workers in fixed chunks. For small n it runs inline to avoid goroutine
// overhead. The worker count defaults to GOMAXPROCS, capped by
// SetKernelParallelism — serving processes set the cap to 1 so kernels never
// nest a second level of parallelism under the comm worker pool.
func parallelFor(n int, body func(i int)) {
	parallelForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// parallelForChunks runs body(lo, hi) over a fixed-order partition of
// [0, n) — the chunked form lets a kernel tile a whole chunk of rows
// instead of re-entering per index.
func parallelForChunks(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if limit := int(kernelWorkers.Load()); limit > 0 && limit < workers {
		workers = limit
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 4 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
