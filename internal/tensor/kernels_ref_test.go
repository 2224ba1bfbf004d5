package tensor

// The matmul panels matmulRows ran before it held its output tiles in
// registers — cache-blocked over (k, j), one axpy pass over an output row
// per k-row — kept unchanged as references: the register-tiled panels must
// reproduce their bits exactly (panel_test.go), not merely come close.

// refBlockK is the k extent of the references' cache blocks. The f32
// reference restarts its groups of four at every block; 64 being a multiple
// of four, its groups fall where the tiled panel's do, and only the last
// block has a tail.
const refBlockK = 64

// refMatmulRowsF64 is the f64 oracle's sequential panel: every out[i][j] is
// 0 + a[i][0]·b[0][j] + a[i][1]·b[1][j] + …, p ascending, zero weights
// skipped, read back from and stored to out once per (i, p) pair.
func refMatmulRowsF64(out, a, b []float64, i0, i1, k, n int) {
	const blockJ = 128
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += refBlockK {
		kend := min(kb+refBlockK, k)
		for jb := 0; jb < n; jb += blockJ {
			jend := min(jb+blockJ, n)
			for i := i0; i < i1; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n+jb : i*n+jend]
				for p := kb; p < kend; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n+jb : p*n+jend]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// refMatmulRowsF32 is the f32 panel's association: within each 64-wide k
// block, groups of four products summed among themselves and then added to
// the running total, the block's tail added one term at a time with zero
// weights skipped.
func refMatmulRowsF32(out, a, b []float32, i0, i1, k, n int) {
	const blockJ = 256
	for i := i0; i < i1; i++ {
		row := out[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	for kb := 0; kb < k; kb += refBlockK {
		kend := min(kb+refBlockK, k)
		for jb := 0; jb < n; jb += blockJ {
			jend := min(jb+blockJ, n)
			for i := i0; i < i1; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n+jb : i*n+jend]
				p := kb
				for ; p+4 <= kend; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					b0 := b[p*n+jb : p*n+jend][:len(orow)]
					b1 := b[(p+1)*n+jb : (p+1)*n+jend][:len(orow)]
					b2 := b[(p+2)*n+jb : (p+2)*n+jend][:len(orow)]
					b3 := b[(p+3)*n+jb : (p+3)*n+jend][:len(orow)]
					for j := range orow {
						orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < kend; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b[p*n+jb : p*n+jend]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// Exported for panel_test.go, which enumerates split's architectures and so
// must live in the external test package (split imports this one).
var (
	MatmulRows64    = matmulRows[float64]
	MatmulRows32    = matmulRows[float32]
	RefMatmulRows64 = refMatmulRowsF64
	RefMatmulRows32 = refMatmulRowsF32
)
