package tensor

import "unsafe"

// Arena is a bump allocator for the inference hot path: tensors carved out
// of one reusable backing buffer instead of individual heap allocations.
// The zero Arena is empty and usable; the first cycle sizes it.
// Alloc hands out slices sequentially; Reset reclaims everything at once and
// grows the buffer to the cycle's high-water mark, so after one warm-up
// cycle a steady-state workload performs zero heap allocations.
//
// Ownership rules (the serving memory model, see DESIGN.md):
//
//   - Every tensor returned by NewTensor/View is INVALIDATED by Reset: its
//     backing array will be handed out again. A caller that needs data to
//     outlive the cycle must copy it out first.
//   - An Arena is not safe for concurrent use. One goroutine owns it — a
//     serving worker, a codec direction, a benchmark loop.
//   - Tensor data from NewTensor is NOT zeroed (the previous cycle's values
//     remain). Kernels writing into arena tensors must fully overwrite or
//     zero their output.
type Arena[T Float] struct {
	data []T
	off  int
	need int

	ints  []int
	ioff  int
	ineed int

	hdrs  []Dense[T]
	hoff  int
	hneed int
}

// Alloc returns an n-element float slice from the arena, falling back to a
// fresh heap allocation when capacity is exhausted (Reset then grows the
// buffer so the next cycle stays in-arena). Contents are unspecified.
func (a *Arena[T]) Alloc(n int) []T {
	a.need += n
	if a.off+n > len(a.data) {
		return make([]T, n)
	}
	s := a.data[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// allocInts is Alloc for the int storage backing tensor shapes.
func (a *Arena[T]) allocInts(n int) []int {
	a.ineed += n
	if a.ioff+n > len(a.ints) {
		return make([]int, n)
	}
	s := a.ints[a.ioff : a.ioff+n : a.ioff+n]
	a.ioff += n
	return s
}

// header returns a reusable Tensor header.
func (a *Arena[T]) header() *Dense[T] {
	a.hneed++
	if a.hoff >= len(a.hdrs) {
		return &Dense[T]{}
	}
	t := &a.hdrs[a.hoff]
	a.hoff++
	return t
}

// prodDims is numElems without the formatted panic: passing the shape to
// fmt would make every variadic shape argument escape to the heap, which is
// exactly what the arena exists to avoid.
func prodDims(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in shape")
		}
		n *= d
	}
	return n
}

// NewTensor returns a tensor of the given shape backed by the arena. Data is
// NOT zeroed; see the ownership rules above.
func (a *Arena[T]) NewTensor(shape ...int) *Dense[T] {
	t := a.header()
	t.Shape = a.allocInts(len(shape))
	copy(t.Shape, shape)
	t.Data = a.Alloc(prodDims(shape))
	return t
}

// View returns a tensor sharing t's backing array under a new shape of equal
// size, with the header and shape storage coming from the arena — the
// allocation-free counterpart of Reshape for the inference path.
func (a *Arena[T]) View(t *Dense[T], shape ...int) *Dense[T] {
	if prodDims(shape) != len(t.Data) {
		panic("tensor: Arena.View size mismatch")
	}
	v := a.header()
	v.Shape = a.allocInts(len(shape))
	copy(v.Shape, shape)
	v.Data = t.Data
	return v
}

// Clone copies t into the arena.
func (a *Arena[T]) Clone(t *Dense[T]) *Dense[T] {
	out := a.NewTensor(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Reset reclaims every allocation at once, invalidating all tensors handed
// out since the previous Reset, and grows the backing buffers to the
// finished cycle's demand so the next identical cycle allocates nothing.
func (a *Arena[T]) Reset() {
	if a.need > len(a.data) {
		a.data = make([]T, a.need)
	}
	if a.ineed > len(a.ints) {
		a.ints = make([]int, a.ineed)
	}
	if a.hneed > len(a.hdrs) {
		a.hdrs = make([]Dense[T], a.hneed)
	}
	a.off, a.need = 0, 0
	a.ioff, a.ineed = 0, 0
	a.hoff, a.hneed = 0, 0
}

// Footprint reports the arena's current backing capacity in bytes — what one
// warmed worker scratch costs at steady state (a float32 arena's data costs
// half a float64 arena's at the same shape load).
func (a *Arena[T]) Footprint() int {
	var elem T
	var hdr Dense[T]
	return len(a.data)*int(unsafe.Sizeof(elem)) + len(a.ints)*int(unsafe.Sizeof(int(0))) + len(a.hdrs)*int(unsafe.Sizeof(hdr))
}
