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

// tile2x4F64 is tile2x4F64Go on SSE2: one XMM register holds a pair of a
// row's columns, and each step multiplies the two pairs of one b row by the
// row's weight broadcast across both lanes, then adds the products to the
// tile — MULPD then ADDPD, never a fused multiply-add, the same IEEE double
// operations per lane as MULSD and ADDSD, so the bits match tile2x4F64Go
// exactly (TestTile2x4F64MatchesGo). Each weight is tested against zero once
// per step with Go's x != 0: a NaN weight is added and a ±0 one skipped.
// SSE2 is part of every amd64 CPU, so there is no feature check.
func tile2x4F64(c *[8]float64, a0, a1, b []float64, n, steps int) {
	if steps == 0 {
		return
	}
	// The assembly reads a0[:steps], a1[:steps] and b rows 0..steps-1,
	// columns 0..3: check them once here.
	_, _, _ = a0[steps-1], a1[steps-1], b[(steps-1)*n+3]
	tile2x4F64SSE2(c, &a0[0], &a1[0], &b[0], n, steps)
}

//go:noescape
func tile2x4F64SSE2(c *[8]float64, a0, a1, b *float64, n, steps int)
