package ensemble

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// randomImages builds a deterministic input batch matching the config's
// image shape.
func randomImages(cfg Config, seed int64, n int) *tensor.Tensor {
	x := tensor.New(n, cfg.Arch.InC, cfg.Arch.H, cfg.Arch.W)
	rng.New(seed).FillNormal(x.Data, 0, 1)
	return x
}

// untrainedPipeline builds a skeleton pipeline cheaply — rotation mechanics
// don't need trained weights.
func untrainedPipeline(seed int64) *Ensembler {
	cfg := tinyConfig(seed)
	cfg.N, cfg.P = 4, 2
	return New(cfg)
}

// digest hashes every network's parameters and batch-norm running
// statistics, then the noise tensors, bit for bit in a fixed order.
func digest(nets []*nn.Network, noises ...*nn.AdditiveNoise) string {
	h := sha256.New()
	var buf [8]byte
	put := func(t *tensor.Tensor) {
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, n := range nets {
		for _, p := range n.Params() {
			put(p.Value)
		}
		for _, bn := range batchNorms(n.Layers) {
			put(bn.RunMean)
			put(bn.RunVar)
		}
	}
	for _, a := range noises {
		if a != nil {
			put(a.Noise.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchNorms lists a layer tree's batch norms in the order nn saves them.
func batchNorms(layers []nn.Layer) []*nn.BatchNorm2D {
	var out []*nn.BatchNorm2D
	for _, l := range layers {
		switch v := l.(type) {
		case *nn.BatchNorm2D:
			out = append(out, v)
		case *nn.BasicBlock:
			out = append(out, v.BN1, v.BN2)
			if v.ShortBN != nil {
				out = append(out, v.ShortBN)
			}
		case *nn.Network:
			out = append(out, batchNorms(v.Layers)...)
		}
	}
	return out
}

// pipelineDigest covers every network and noise tensor of a pipeline: the N
// members' heads, bodies and tails, and the final head, noise and tail.
func pipelineDigest(e *Ensembler) string {
	var nets []*nn.Network
	var noises []*nn.AdditiveNoise
	for _, m := range e.Members {
		nets = append(nets, m.Head, m.Body, m.Tail)
		noises = append(noises, m.Noise)
	}
	return digest(append(nets, e.Head, e.Tail), append(noises, e.Noise)...)
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	e := untrainedPipeline(71)
	c, err := e.Clone()
	if err != nil {
		t.Fatal(err)
	}
	x := randomImages(e.Cfg, 72, 3)
	if !c.Predict(x).AllClose(e.Predict(x), 1e-12) {
		t.Fatal("clone predicts differently")
	}
	// Mutating the clone must not touch the original.
	c.Head.Params()[0].Value.Data[0] += 1
	c.Selector.Indices[0] = (c.Selector.Indices[0] + 1) % c.Cfg.N
	if e.Head.Params()[0].Value.Data[0] == c.Head.Params()[0].Value.Data[0] {
		t.Error("clone shares head parameters with the original")
	}
	if e.Selector.Indices[0] == c.Selector.Indices[0] {
		t.Error("clone shares selector state with the original")
	}
}

func TestRotateRedrawsSelectorKeepsBodies(t *testing.T) {
	e := untrainedPipeline(73)
	before := append([]int(nil), e.Selector.Indices...)

	rot, err := e.Rotate(RotateOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if sameIndices(rot.Selector.Indices, before) {
		t.Error("rotation kept the same secret subset")
	}
	if !sameIndices(e.Selector.Indices, before) {
		t.Error("rotation mutated the original's selector")
	}
	// The server bodies are the parent's own networks: rotation is invisible
	// on the wire by design, and costs no body memory.
	if len(rot.Members) != len(e.Members) {
		t.Fatalf("rotation has %d members, parent %d", len(rot.Members), len(e.Members))
	}
	for i := range e.Members {
		if rot.Members[i] != e.Members[i] {
			t.Errorf("rotation copied member %d instead of sharing it", i)
		}
	}
	// Without tuning, the stage-3 networks are shared too.
	if rot.Head != e.Head || rot.Noise != e.Noise || rot.Tail != e.Tail {
		t.Error("untuned rotation copied the head, noise or tail")
	}
}

func TestRotateSameSeedStillMoves(t *testing.T) {
	// Even a seed whose first draw reproduces the current subset must end on
	// a different one (redraw-until-moved), for every seed we try.
	e := untrainedPipeline(74)
	for seed := int64(0); seed < 20; seed++ {
		rot, err := e.Rotate(RotateOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if sameIndices(rot.Selector.Indices, e.Selector.Indices) {
			t.Fatalf("seed %d: rotation landed on the same subset", seed)
		}
	}
}

func TestRotateSingleSubsetIsIdentity(t *testing.T) {
	cfg := tinyConfig(75)
	cfg.N, cfg.P = 2, 2 // only one possible subset
	e := New(cfg)
	rot, err := e.Rotate(RotateOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(rot.Selector.Indices, e.Selector.Indices) {
		t.Error("P=N rotation invented a different subset")
	}
}

// TestRotateWithTuneAdaptsHeadTail checks a tuned rotation: it fine-tunes
// the stage-3 networks to the new subset on a private copy, so the parent —
// whose bodies the rotation shares — keeps every parameter and batch-norm
// running statistic bit for bit, and the tuned head/noise/tail come out
// exactly as they did when rotation fine-tuned a whole-pipeline copy.
func TestRotateWithTuneAdaptsHeadTail(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	// Recorded when Rotate still deep-copied the whole pipeline and tuned
	// the copy in place (amd64; see nn.TestGoldenBodyBits).
	const wantTuned = "773b9726bba2dcdacf4d23adfa77b4b02fb6d2c726de554d45bc27fa2d0863b0"
	train := tinyData(76)
	cfg := tinyConfig(77)
	e := Train(cfg, train, nil)
	parent := pipelineDigest(e)

	rot, err := e.Rotate(RotateOptions{
		Seed: 5,
		Tune: train,
		TuneOpts: split.TrainOptions{
			Epochs: 1, BatchSize: 16, LR: 0.02,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	a, b := e.Tail.Params(), rot.Tail.Params()
	for i := range a {
		for k := range a[i].Value.Data {
			if a[i].Value.Data[k] != b[i].Value.Data[k] {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("tuned rotation left the tail untouched")
	}
	for i := range e.Members {
		if rot.Members[i] != e.Members[i] {
			t.Errorf("tuned rotation copied member %d instead of sharing it", i)
		}
	}
	if rot.Head == e.Head || rot.Tail == e.Tail {
		t.Error("tuned rotation shares the parent's head or tail, which it trained")
	}
	if got := pipelineDigest(e); got != parent {
		t.Errorf("tuned rotation wrote to the parent: state digest %s, was %s", got, parent)
	}
	if got := digest([]*nn.Network{rot.Head, rot.Tail}, rot.Noise); runtime.GOARCH == "amd64" && got != wantTuned {
		t.Errorf("tuned head/noise/tail digest %s, want %s", got, wantTuned)
	}
}
