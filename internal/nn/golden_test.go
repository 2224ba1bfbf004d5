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
// precisions — ForwardInfer and Compile[float64] at float64 (one digest),
// Compile[float32] at float32, 1 and 8 rows — to digests recorded at the commit before the compute stack became
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
	n64, err := nn.Compile[float64](body)
	if err != nil {
		t.Fatal(err)
	}
	n32, err := nn.Compile[float32](body)
	if err != nil {
		t.Fatal(err)
	}
	h64, c64, h32 := sha256.New(), sha256.New(), sha256.New()
	var buf [8]byte
	for _, rows := range []int{1, 8} {
		x := tensor.New(rows, 8, 16, 16)
		rng.New(1303+int64(rows)).FillNormal(x.Data, 0, 1)
		for _, v := range body.ForwardInfer(x, nn.NewScratch()).Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h64.Write(buf[:])
		}
		for _, v := range n64.ForwardInfer(x, nn.NewScratch()).Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			c64.Write(buf[:])
		}
		for _, v := range n32.ForwardInfer(tensor.Narrow32(x), new(nn.Scratch[float32])).Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h32.Write(buf[:4])
		}
	}
	if got := hex.EncodeToString(h64.Sum(nil)); got != wantF64 {
		t.Errorf("float64 ForwardInfer bits changed: digest %s, want %s", got, wantF64)
	}
	if got := hex.EncodeToString(c64.Sum(nil)); got != wantF64 {
		t.Errorf("float64 Compile bits changed: digest %s, want %s", got, wantF64)
	}
	if got := hex.EncodeToString(h32.Sum(nil)); got != wantF32 {
		t.Errorf("float32 Compile bits changed: digest %s, want %s", got, wantF32)
	}
}

// TestScratchHeadTailBits holds the client half's inference path — head and
// tail through ForwardInfer over one reused, dirty scratch — to the training
// entry Forward(x, false), bit for bit, on TestGoldenBodyBits' architecture,
// seeds and row counts. The edge client serves from the first; every oracle
// computes the second.
func TestScratchHeadTailBits(t *testing.T) {
	arch := split.Arch{InC: 3, H: 16, W: 16, HeadC: 8, BlockWidths: []int{16, 32}, Classes: 10, UseMaxPool: true}
	const p = 4
	head := arch.NewHead("golden.head", rng.New(1301))
	for name, tail := range map[string]*nn.Network{
		"plain":   arch.NewTail("golden.tail", p, 0, rng.New(1301)),
		"dropout": arch.NewTail("golden.tail", p, 0.3, rng.New(1301)),
	} {
		s := nn.NewScratch()
		for _, rows := range []int{1, 8, 1} {
			x := tensor.New(rows, arch.InC, arch.H, arch.W)
			rng.New(1303+int64(rows)).FillNormal(x.Data, 0, 1)
			sel := tensor.New(rows, p*arch.FeatureDim())
			rng.New(1303+int64(rows)).FillNormal(sel.Data, 0, 1)
			for _, c := range []struct {
				net *nn.Network
				in  *tensor.Tensor
			}{{head, x}, {tail, sel}} {
				want := c.net.Forward(c.in, false)
				s.Reset()
				got := c.net.ForwardInfer(c.in, s)
				if !got.SameShape(want) {
					t.Fatalf("%s tail, %s at %d rows: shape %v, want %v", name, c.net.Name, rows, got.Shape, want.Shape)
				}
				for i, v := range got.Data {
					if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s tail, %s at %d rows: element %d is %v, want %v", name, c.net.Name, rows, i, v, want.Data[i])
					}
					got.Data[i] = math.NaN() // leave the scratch dirty for the next pass
				}
			}
		}
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
