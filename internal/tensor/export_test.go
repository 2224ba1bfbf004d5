package tensor

// withF64Tiles calls f once per path the f64 tile can take on this host,
// with tile8x4F64 switched to it through useAVX2: "go", the portable form,
// then "avx2" where the CPU check passed. It restores the switch afterwards,
// so a test that calls it must not run in parallel with other tests of this
// package. On amd64 CI this is what runs the Go fallback, which the panels
// otherwise take only on CPUs without AVX2 and on other GOARCHes.
func withF64Tiles(f func(path string)) {
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
	WithF64Tiles    = withF64Tiles

	RefIm2col64    = refIm2col[float64]
	RefIm2col32    = refIm2col[float32]
	Col2imAdd      = col2imAddTable
	RefCol2imAdd   = refCol2imAdd
	RefMaxPool64   = refMaxPool[float64]
	RefMaxPool32   = refMaxPool[float32]
	RefMaxPoolGrad = refMaxPoolGrad
)
