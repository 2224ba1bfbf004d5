package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// This file holds the data movement around the matmul panels: im2col,
// col2im and max pooling. All three are driven by one precomputed table per
// window geometry instead of re-deriving every tap's position (and testing
// it against the border) per element. None of them does arithmetic — they
// copy, add in the order the replaced loops added, or compare — so their
// results are the same bits at every element type.

// window is the geometry of a sliding window over one [h,w] plane: kernel
// kh×kw, the given stride, symmetric zero padding pad.
type window struct{ h, w, kh, kw, stride, pad int }

// gather is the table of a window geometry: for tap (ky,kx) of output
// position (oy,ox), entry ((ky*kw+kx)*oh+oy)*ow+ox holds the index into the
// plane that the tap reads, or -1 where it reads padding. It is the patch
// matrix of one plane with positions in place of values, so the patch
// matrix of a [C,H,W] image is channel ci's plane gathered through it into
// rows ci*kh*kw … (ci+1)*kh*kw-1.
type gather struct {
	idx    []int32
	oh, ow int
}

// build computes g's gather table, walking the entries in ascending order.
func (g window) build() gather {
	if g.h*g.w > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: %dx%d plane too large for a gather table", g.h, g.w))
	}
	oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
	ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
	idx := make([]int32, 0, g.kh*g.kw*oh*ow)
	for ky := 0; ky < g.kh; ky++ {
		for kx := 0; kx < g.kw; kx++ {
			for oy := 0; oy < oh; oy++ {
				iy := oy*g.stride + ky - g.pad
				for ox := 0; ox < ow; ox++ {
					ix := ox*g.stride + kx - g.pad
					if iy < 0 || iy >= g.h || ix < 0 || ix >= g.w {
						idx = append(idx, -1)
					} else {
						idx = append(idx, int32(iy*g.w+ix))
					}
				}
			}
		}
	}
	return gather{idx: idx, oh: oh, ow: ow}
}

// tableKey is a geometry a table is built from: a window for the gathers
// (gather) or a window over c channels for the direct convolution
// (convTaps, direct.go).
type tableKey[V any] interface {
	comparable
	build() V
}

// tableCache holds every table built so far. Lookups load the current map
// and read it with no lock and no allocation; a miss builds the table under
// the mutex and publishes a copy of the map with it added. A table holds
// positions, not values, so every body, worker and precision of a process
// shares one table per geometry — a serving process sees a handful of
// geometries (one per distinct conv or pool shape of its architecture).
type tableCache[K tableKey[V], V any] struct {
	mu     sync.Mutex
	tables atomic.Pointer[map[K]V]
}

// windows is the process-wide gather table cache.
var windows tableCache[window, gather]

// get returns k's table, building it on first use.
func (c *tableCache[K, V]) get(k K) V {
	if m := c.tables.Load(); m != nil {
		if t, ok := (*m)[k]; ok {
			return t
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.tables.Load()
	if old != nil {
		if t, ok := (*old)[k]; ok {
			return t
		}
	}
	next := make(map[K]V, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	t := k.build()
	next[k] = t
	c.tables.Store(&next)
	return t
}

// im2colSlice writes the patch matrix of the [C,H,W] image src into dst
// ([C*KH*KW, OH*OW]), one gather pass through the plane's table per channel:
// every entry is written, padding as 0.
func im2colSlice[T Float](dst, src []T, c, hw int, t gather) {
	per := len(t.idx)
	for ci := 0; ci < c; ci++ {
		plane := src[ci*hw : (ci+1)*hw]
		out := dst[ci*per : (ci+1)*per]
		for e, i := range t.idx {
			if i < 0 {
				out[e] = 0
			} else {
				out[e] = plane[i]
			}
		}
	}
}

// col2imAdd is the adjoint of im2colSlice: it scatter-adds the patch matrix
// src into the [C,H,W] image dst, accumulating onto what dst already holds.
// Entries are added in ascending order, so every image element receives its
// taps in (ky, kx, oy, ox) order.
func col2imAdd(dst, src []float64, c, hw int, t gather) {
	per := len(t.idx)
	for ci := 0; ci < c; ci++ {
		plane := dst[ci*hw : (ci+1)*hw]
		col := src[ci*per : (ci+1)*per]
		for e, i := range t.idx {
			if i >= 0 {
				plane[i] += col[e]
			}
		}
	}
}

// MaxPoolInto pools every [H,W] plane of x ([N,C,H,W]) into the caller-owned
// y ([N,C,OH,OW]): each output is the largest of its k×k window (stride
// stride, no padding, so every tap lies inside the plane) and of floor. The
// running maximum starts at floor and takes a tap only when the tap is
// strictly greater, taps in row-major window order — the rule
// MaxPoolGradAdd finds each argmax with. floor −Inf is plain max
// pooling; floor 0 is max pooling of the rectified input, bit for bit (see
// nn.Compile). It is a reduction over the rows of each plane's patch
// matrix, read through the table instead of materialized.
func MaxPoolInto[T Float](y, x *Dense[T], k, stride int, floor T) *Dense[T] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: MaxPoolInto expects NCHW, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	t := windows.get(window{h: h, w: w, kh: k, kw: k, stride: stride})
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != c || y.Shape[2] != t.oh || y.Shape[3] != t.ow {
		panic(fmt.Sprintf("tensor: MaxPoolInto y shape %v, want [%d %d %d %d]", y.Shape, n, c, t.oh, t.ow))
	}
	hw, ohw := h*w, t.oh*t.ow
	for p := 0; p < n*c; p++ {
		plane := x.Data[p*hw : (p+1)*hw]
		out := y.Data[p*ohw : (p+1)*ohw]
		for o := range out {
			out[o] = floor
		}
		for tap := 0; tap < k*k; tap++ {
			for o, i := range t.idx[tap*ohw : (tap+1)*ohw][:len(out)] {
				// A branch-free select (gc emits SETcc, not a jump): over
				// activations, half of them negative, whether a tap wins is
				// a coin toss, and a branch on it mispredicted often
				// enough to make this loop ~3× slower.
				v, best := plane[i], out[o]
				take := 0
				if v > best {
					take = 1
				}
				out[o] = [2]T{best, v}[take]
			}
		}
	}
	return y
}

// MaxPoolGradAdd is the backward pass of MaxPoolInto at floor −Inf: it adds
// each output gradient of dy ([N,C,OH,OW]) to the element of dx ([N,C,H,W])
// that won its window of x, found again with MaxPoolInto's rule (the first
// tap strictly greater than the running maximum), outputs in ascending
// order.
func MaxPoolGradAdd(dx, x, dy *Tensor, k, stride int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	t := windows.get(window{h: h, w: w, kh: k, kw: k, stride: stride})
	hw, ohw := h*w, t.oh*t.ow
	for p := 0; p < n*c; p++ {
		plane := x.Data[p*hw : (p+1)*hw]
		grad := dx.Data[p*hw : (p+1)*hw]
		for o, g := range dy.Data[p*ohw : (p+1)*ohw] {
			best, arg := math.Inf(-1), int32(-1)
			for tap := o; tap < len(t.idx); tap += ohw {
				if v := plane[t.idx[tap]]; v > best {
					best, arg = v, t.idx[tap]
				}
			}
			grad[arg] += g
		}
	}
}
