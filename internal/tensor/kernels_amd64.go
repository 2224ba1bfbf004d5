package tensor

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
