package tensor

// useAVX2 selects the f64 tile, the direct convolutions and the vector
// forms of the elementwise passes (elementwise.go): their AVX2
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
// which adds nothing to a sum that is never −0. Before its store a block's
// sums take d's epilogue, if it has one: VSUBPS, VMULPS, VMULPS, VADDPS
// against the packed constants and VMAXPS against +0 for the ReLU,
// BatchNormInto's and ReLU's operations in their order. The last OutC mod
// 8 output channels, and every channel where the CPU check failed, run in
// Go, and ConvDirectInto applies their epilogue after the batch
// (vectorOutC).
func convDirectF32(y, x []float32, d *DirectConv[float32], taps []int32, hw int) {
	b, full := 0, d.outC/8
	if useAVX2 && full > 0 {
		// The assembly reads x at the table's offsets, inside the one
		// [C,H,W] image of the table's geometry that ConvDirectInto
		// passes, rows p < C·KH·KW of w at columns below ldw, and writes
		// the first 8·full planes of y: check those once here.
		_ = y[d.outC*hw-1]
		for b < full {
			yb, wb, ep := &y[8*b*hw], &d.w[8*b], epAt(d, b)
			switch {
			case full-b >= 4:
				convDirect8x4AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw, ep, d.relu)
				b += 4
			case full-b >= 2:
				convDirect8x2AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw, ep, d.relu)
				b += 2
			default:
				convDirect8x1AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw, ep, d.relu)
				b++
			}
		}
	}
	if 8*b < d.outC {
		convDirectF32Go(y, x, d.w, d.ldw, d.outC, hw, taps, b, (d.outC+7)/8)
	}
}

//go:noescape
func convDirect8x4AVX2(y, x, w *float32, taps *int32, hw, ldw int, ep *float32, relu bool)

//go:noescape
func convDirect8x2AVX2(y, x, w *float32, taps *int32, hw, ldw int, ep *float32, relu bool)

//go:noescape
func convDirect8x1AVX2(y, x, w *float32, taps *int32, hw, ldw int, ep *float32, relu bool)

// convDirectF64 computes one image's direct convolution at float64,
// convDirectF64Go over every output channel, on AVX2 where the CPU has it:
// whole blocks of eight output channels run in the assembly, two or one
// blocks to a pass over the tap table, with four YMM lanes per register
// and one lane per output channel. Each tap broadcasts its input value,
// multiplies it by the weight row's blocks, masks each product to +0 where
// its weight is ±0 (VCMPPD, not-equal-or-unordered) and adds it to the
// position's sum — VMULPD then VADDPD, never a fused multiply-add, so the
// bits match convDirectF64Go exactly (TestConvDirectF64MatchesGo). The
// masked +0 adds nothing to a sum that is never −0, as the Go form's skip
// adds nothing. The epilogue is convDirectF32's with the PD forms. The last
// OutC mod 8 output channels, and every channel where the CPU check failed,
// run in Go, as at float32.
func convDirectF64(y, x []float64, d *DirectConv[float64], taps []int32, hw int) {
	b, full := 0, d.outC/8
	if useAVX2 && full > 0 {
		// The same bounds as convDirectF32's, checked once here.
		_ = y[d.outC*hw-1]
		for b < full {
			yb, wb, ep := &y[8*b*hw], &d.w[8*b], epAt(d, b)
			if full-b >= 2 {
				convDirect4x4AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw, ep, d.relu)
				b += 2
			} else {
				convDirect4x2AVX2(yb, &x[0], wb, &taps[0], hw, d.ldw, ep, d.relu)
				b++
			}
		}
	}
	if 8*b < d.outC {
		convDirectF64Go(y, x, d.w, d.ldw, d.outC, hw, taps, b, (d.outC+7)/8)
	}
}

//go:noescape
func convDirect4x4AVX2(y, x, w *float64, taps *int32, hw, ldw int, ep *float64, relu bool)

//go:noescape
func convDirect4x2AVX2(y, x, w *float64, taps *int32, hw, ldw int, ep *float64, relu bool)

// vectorOutC is how many of a direct convolution's outC output channels
// convDirectF32 and convDirectF64 compute in the AVX2 routines, their
// epilogue included: the whole blocks of eight where the CPU has AVX2,
// else none. ConvDirectInto applies the epilogue to the rest in Go.
func vectorOutC(outC int) int {
	if useAVX2 {
		return outC &^ 7
	}
	return 0
}

// epAt points at block b's mean in d's packed epilogue, or is nil where d
// has none.
func epAt[T Float](d *DirectConv[T], b int) *T {
	if d.ep[0] == nil {
		return nil
	}
	return &d.ep[0][8*b]
}

// addReLU is AddReLUInto on AVX2 where the CPU has it, and reports whether
// it ran: whole vectors of eight float32 or four float64 in the assembly,
// the rest as AddInto and ReLU do it.
func addReLU[T Float](dst, a, b []T) bool {
	if !useAVX2 {
		return false
	}
	a, b = a[:len(dst)], b[:len(dst)]
	m := 0 // the elements the assembly runs
	switch d := any(dst).(type) {
	case []float32:
		if m = len(d) &^ 7; m > 0 {
			addReLU32AVX2(&d[0], &any(a).([]float32)[0], &any(b).([]float32)[0], m)
		}
	case []float64:
		if m = len(d) &^ 3; m > 0 {
			addReLU64AVX2(&d[0], &any(a).([]float64)[0], &any(b).([]float64)[0], m)
		}
	}
	for i := m; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
	ReLU(dst[m:], dst[m:])
	return true
}

//go:noescape
func addReLU32AVX2(dst, a, b *float32, n int)

//go:noescape
func addReLU64AVX2(dst, a, b *float64, n int)

// normReLUPool is NormReLUPoolInto's pass on AVX2 where the CPU has it,
// over n images of c w×w planes (w 16 or 8), and reports whether it ran.
// The assembly walks each plane in units of 32 values, which pool to 8:
// two rows of a 16-wide plane, four of an 8-wide one. It reads a unit's
// rows at 0 and w values on and, for its second half, at boff and
// boff + w: 8 on (the right half of the two rows) at w = 16, 16 on (the
// next two rows) at w = 8.
func normReLUPool[T Float](y, x []T, n, c, w int, mean, inv, gamma, beta []T) bool {
	if !useAVX2 {
		return false
	}
	per := c * w * w
	_, _ = x[n*per-1], y[n*per/4-1]
	units, boff := w*w/32, 128/w
	switch yd := any(y).(type) {
	case []float32:
		xd := any(x).([]float32)
		m, v, g, bt := any(mean).([]float32), any(inv).([]float32), any(gamma).([]float32), any(beta).([]float32)
		for i := 0; i < n; i++ {
			normReLUPool32AVX2(&yd[i*per/4], &xd[i*per], &m[0], &v[0], &g[0], &bt[0], c, units, 4*w, 4*boff)
		}
	case []float64:
		xd := any(x).([]float64)
		m, v, g, bt := any(mean).([]float64), any(inv).([]float64), any(gamma).([]float64), any(beta).([]float64)
		for i := 0; i < n; i++ {
			normReLUPool64AVX2(&yd[i*per/4], &xd[i*per], &m[0], &v[0], &g[0], &bt[0], c, units, 8*w, 8*boff)
		}
	}
	return true
}

//go:noescape
func normReLUPool32AVX2(y, x, mean, inv, gamma, beta *float32, c, units, w, boff int)

//go:noescape
func normReLUPool64AVX2(y, x, mean, inv, gamma, beta *float64, c, units, w, boff int)
