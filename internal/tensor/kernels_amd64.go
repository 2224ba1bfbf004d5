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

// useAVX2 selects the f64 tile: the AVX2 transcription where the CPU and
// the OS support it, checked once at package init, else the Go form.
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
