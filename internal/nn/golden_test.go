package nn_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// TestGoldenBodyBits pins the output bits of one seeded split body at both
// precisions — ForwardInfer at float64 and CompileF32 at float32, 1 and 8
// rows — to digests recorded at the commit before the compute stack became
// generic. A change here means an accumulation order, a rounding point or a
// kernel selection moved: the f64 oracle and the f32 backend must both stay
// bit-identical across refactors. (amd64 only: architectures that fuse
// multiply-adds produce different, equally valid bits.)
func TestGoldenBodyBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are pinned on amd64")
	}
	const (
		wantF64 = "17ccdeddef07a6b8a3621af1ba50262c15c8b991b463ef17ffc6d7b452909b87"
		wantF32 = "edda27977b4e3e46605fd43a3cd6a910e43a536becd05b1f3f0e07263c193d00"
	)
	arch := split.Arch{InC: 3, H: 16, W: 16, HeadC: 8, BlockWidths: []int{16, 32}, Classes: 10, UseMaxPool: true}
	body := arch.NewBody("golden", rng.New(1301))
	warm := tensor.New(4, 8, 16, 16)
	rng.New(1302).FillNormal(warm.Data, 0, 1)
	body.Forward(warm, true) // move the batch-norm running statistics off their defaults
	n32, err := nn.CompileF32(body)
	if err != nil {
		t.Fatal(err)
	}
	h64, h32 := sha256.New(), sha256.New()
	var buf [8]byte
	for _, rows := range []int{1, 8} {
		x := tensor.New(rows, 8, 16, 16)
		rng.New(1303+int64(rows)).FillNormal(x.Data, 0, 1)
		for _, v := range body.ForwardInfer(x, nn.NewScratch()).Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h64.Write(buf[:])
		}
		for _, v := range n32.ForwardInfer(tensor.Narrow32(x), nn.NewScratch32()).Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h32.Write(buf[:4])
		}
	}
	if got := hex.EncodeToString(h64.Sum(nil)); got != wantF64 {
		t.Errorf("float64 ForwardInfer bits changed: digest %s, want %s", got, wantF64)
	}
	if got := hex.EncodeToString(h32.Sum(nil)); got != wantF32 {
		t.Errorf("float32 CompileF32 bits changed: digest %s, want %s", got, wantF32)
	}
}

// TestLegacyTensorGobDecodes pins on-disk compatibility: model artifacts
// published while tensor.Tensor was a plain struct named Tensor carry that
// name in their gob type descriptor, and must keep decoding into the generic
// tensor.Dense[float64] (gob matches struct fields by name, not type name).
func TestLegacyTensorGobDecodes(t *testing.T) {
	type Tensor struct {
		Shape []int
		Data  []float64
	}
	type legacyParam struct {
		Name  string
		Value *Tensor
	}
	var stream bytes.Buffer
	old := legacyParam{Name: "conv.w", Value: &Tensor{Shape: []int{2, 3}, Data: []float64{1, -2, 3.5, 0, 1e-9, 6}}}
	if err := gob.NewEncoder(&stream).Encode(old); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name  string
		Value *tensor.Tensor
	}
	if err := gob.NewDecoder(&stream).Decode(&got); err != nil {
		t.Fatalf("legacy gob stream no longer decodes: %v", err)
	}
	if got.Name != old.Name || !got.Value.AllClose(tensor.FromSlice(old.Value.Data, old.Value.Shape...), 0) {
		t.Errorf("legacy tensor decoded to %v, want shape %v data %v", got.Value, old.Value.Shape, old.Value.Data)
	}
}
