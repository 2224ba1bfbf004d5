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
