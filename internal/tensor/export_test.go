package tensor

// withAVX2 calls f once per path the SIMD kernels behind useAVX2 can take
// on this host — the f64 panel's tile (tile8x4F64), the direct
// convolutions (convDirectF32, convDirectF64) and the elementwise passes
// (addReLU, normReLUPool) — with the switch set to
// it: "go", the portable forms, then "avx2" where the CPU check passed. It
// restores the switch afterwards, so a test that calls it must not run in
// parallel with other tests of this package. On amd64 CI this is what runs
// the Go forms, which the kernels otherwise take only on CPUs without AVX2
// and on other GOARCHes.
func withAVX2(f func(path string)) {
	hasAVX2 := useAVX2
	defer func() { useAVX2 = hasAVX2 }()
	useAVX2 = false
	f("go")
	if hasAVX2 {
		useAVX2 = true
		f("avx2")
	}
}

// Exported for panel_test.go and gather_test.go, which enumerate split's
// architectures and so must live in the external test package (split
// imports this one).
var (
	MatmulRows64    = matmulRows[float64]
	MatmulRows32    = matmulRows[float32]
	RefMatmulRows64 = refMatmulRowsF64
	RefMatmulRows32 = refMatmulRowsF32
	HardwareNaN     = hardwareNaN
	WithAVX2        = withAVX2

	RefIm2col64    = refIm2col[float64]
	RefIm2col32    = refIm2col[float32]
	Col2imAdd      = col2imAddTable
	RefCol2imAdd   = refCol2imAdd
	RefMaxPool64   = refMaxPool[float64]
	RefMaxPool32   = refMaxPool[float32]
	RefMaxPoolGrad = refMaxPoolGrad
)
