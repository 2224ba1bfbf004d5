package tensor

// tile2x4F32 is tile2x4F32Go on SSE: one XMM register holds a row's four
// columns, and each step of four k-rows multiplies the four b rows by the
// row's four weights broadcast across lanes and sums the products in the
// scalar expression's order — MULPS and ADDPS, never a fused multiply-add,
// are the same IEEE single operations per lane as MULSS and ADDSS, so the
// bits match tile2x4F32Go exactly (TestTile2x4F32MatchesGo). SSE is part of
// every amd64 CPU, so there is no feature check.
func tile2x4F32(c *[8]float32, a0, a1, b []float32, n, steps int) {
	if steps == 0 {
		return
	}
	// The assembly reads a0[:4*steps], a1[:4*steps] and b rows
	// 0..4*steps-1, columns 0..3: check them once here.
	_, _, _ = a0[4*steps-1], a1[4*steps-1], b[(4*steps-1)*n+3]
	tile2x4F32SSE(c, &a0[0], &a1[0], &b[0], n, steps)
}

//go:noescape
func tile2x4F32SSE(c *[8]float32, a0, a1, b *float32, n, steps int)

// tile4x1F32 is tile4x1F32Go on SSE: one XMM lane per tile row. Each step
// gathers column 0 of four b rows into one register, multiplies each row's
// four weights by it, and transposes the four product vectors, so that lane
// r of the k'th vector holds row r's k'th product; the four vectors are then
// summed in the scalar expression's order and added to the tile (MULPS and
// ADDPS, never fused: TestTile4x1F32MatchesGo).
func tile4x1F32(c *[4]float32, a *[4][]float32, b []float32, n, steps int) {
	if steps == 0 {
		return
	}
	// The assembly reads a[r][:4*steps] and b rows 0..4*steps-1, column 0.
	for _, row := range a {
		_ = row[4*steps-1]
	}
	_ = b[(4*steps-1)*n]
	tile4x1F32SSE(c, a, &b[0], n, steps)
}

//go:noescape
func tile4x1F32SSE(c *[4]float32, a *[4][]float32, b *float32, n, steps int)

// useAVX2 selects the f64 tile and the direct f32 convolution: their AVX2
// transcriptions where the CPU and the OS support it, checked once at
// package init, else the Go forms.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether AVX2 instructions can run here: CPUID leaf 1
// reports OSXSAVE and AVX, XGETBV shows the OS saving the XMM and YMM
// state, and leaf 7 reports AVX2.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// tile8x4F64 is tile8x4F64Go on AVX2 where the CPU has it: one YMM register
// holds a row's four columns, and each step multiplies b row p by the row's
// weight broadcast across the four lanes, then adds the product to the row —
// VMULPD then VADDPD, never a fused multiply-add, the same IEEE double
// operations per lane as MULSD and ADDSD, so the bits match tile8x4F64Go
// exactly (TestTile8x4F64MatchesGo). Each weight is tested against zero once
// per step with Go's x != 0: a NaN weight is added and a ±0 one skipped.
func tile8x4F64(c *[8][4]float64, a *[8][]float64, b []float64, n, steps int) {
	if !useAVX2 {
		tile8x4F64Go(c, a, b, n, steps)
		return
	}
	if steps == 0 {
		return
	}
	// The assembly reads a[r][:steps] and b rows 0..steps-1, columns 0..3.
	for _, row := range a {
		_ = row[steps-1]
	}
	_ = b[(steps-1)*n+3]
	tile8x4F64AVX2(c, a, &b[0], n, steps)
}

//go:noescape
func tile8x4F64AVX2(c *[8][4]float64, a *[8][]float64, b *float64, n, steps int)

// convDirectF32 computes one image's direct convolution, convDirectF32Go
// over every output channel, on AVX2 where the CPU has it: whole blocks of
// eight output channels run in the assembly, four, two or one blocks to a
// pass over the tap table, with one YMM lane per output channel. Each tap
// broadcasts its input value and multiplies it by the weight row's blocks,
// and each product is added to its group's sum, then each group to the
// position's — VMULPS then VADDPS, never a fused multiply-add, the same IEEE
// single operations per lane as MULSS and ADDSS, so the bits match
// convDirectF32Go exactly (TestConvDirectMatchesGo). A tail tap's product is
// masked to +0 where its weight is ±0 (VCMPPS, not-equal-or-unordered),
// which adds nothing to a sum that is never −0. The last OutC mod 8 output
// channels, and every channel where the CPU check failed, run in Go.
func convDirectF32(y, x []float32, d *DirectConv32, taps []int32, hw int) {
	b, full := 0, d.outC/8
	if useAVX2 && full > 0 {
		// The assembly reads x at the table's offsets, inside the one
		// [C,H,W] image of the table's geometry that ConvDirectInto32
		// passes, rows p < C·KH·KW of w at columns below ldw, and writes
		// the first 8·full planes of y: check those once here.
		_ = y[d.outC*hw-1]
		for b < full {
			yb, wb := &y[8*b*hw], &d.w[8*b]
			switch {
			case full-b >= 4:
				convDirect8x4AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw)
				b += 4
			case full-b >= 2:
				convDirect8x2AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw)
				b += 2
			default:
				convDirect8x1AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw)
				b++
			}
		}
	}
	if 8*b < d.outC {
		convDirectF32Go(y, x, d.w, d.ldw, d.outC, hw, taps, b, (d.outC+7)/8)
	}
}

//go:noescape
func convDirect8x4AVX2(y, x, w *float32, taps *int32, hw, ldw int)

//go:noescape
func convDirect8x2AVX2(y, x, w *float32, taps *int32, hw, ldw int)

//go:noescape
func convDirect8x1AVX2(y, x, w *float32, taps *int32, hw, ldw int)
