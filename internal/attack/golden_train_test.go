package attack_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"ensembler/internal/attack"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/optim"
	"ensembler/internal/rng"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// TestGoldenTrainingBits pins the bits of the training path — every layer's
// Forward(x, true) and Backward — on the workloads the paper's numbers come
// from: a seeded three-stage ensemble.Train (batch-norm batch statistics,
// dropout masks, fixed noise, the Eq. 3 regularizer), one attack.TrainDecoder
// against its client features (conv with bias, LeakyReLU, Sigmoid), one
// attack.RMLE inversion through a head and an eval-mode body (input
// gradients through running-statistic batch norm, residual blocks, max and
// average pooling), and a few Adam steps on a small stack whose first layer
// is trainable noise — the noise Shredder and the shadow attack's bias learn,
// which nothing above trains — so its Backward and the gradient it sums into
// its own parameter are in the digest. It hashes every parameter, every
// running statistic, the inversion and Train's log text.
//
// The digests must not move under a refactor of the training kernels, and
// must not depend on how many goroutines the kernels fan out across (CI runs
// this under -cpu 1,2,4). amd64 only, like nn.TestGoldenBodyBits: fused
// multiply-adds elsewhere give different, equally valid bits.
func TestGoldenTrainingBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are pinned on amd64")
	}
	const (
		wantEnsemble = "042bd900216eefd5e3f1f5c02e8ff7e12042ef2399469f04470287c2022c6f91"
		wantDecoder  = "717f893d7279938631fca345bc38d686e228f4ea75e82885366c2db8e463dabd"
		wantRMLE     = "24820e649a2518cbead1533ea3345bec397404019c8b67cb1d1978e7bc9b347f"
		wantStack    = "4e81555402562f05c12f0a85c18b786263d1f2f51bb5d3f4fc5620164ffd569b"
	)
	arch := split.Arch{InC: 3, H: 8, W: 8, HeadC: 4, BlockWidths: []int{8, 16}, Classes: 4, UseMaxPool: true}
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, W: 8, Train: 32, Aux: 16, Test: 8, Seed: 3201})
	for _, ds := range []*data.Dataset{sp.Train, sp.Aux, sp.Test} {
		ds.Classes = arch.Classes
		for i, l := range ds.Labels {
			ds.Labels[i] = l % arch.Classes
		}
	}

	cfg := ensemble.Config{
		Arch: arch, N: 3, P: 2, Sigma: 0.1, Lambda: 0.5, Seed: 3202, Stage1Noise: true, Dropout: 0.1,
		Stage1: split.TrainOptions{Epochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.9},
		Stage3: split.TrainOptions{Epochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.9},
	}
	var log bytes.Buffer
	e := ensemble.Train(cfg, sp.Train, &log)
	h := sha256.New()
	h.Write(log.Bytes())
	for _, m := range e.Members {
		for _, net := range []*nn.Network{m.Head, m.Body, m.Tail} {
			hashNetwork(h, net)
		}
		hashFloats(h, m.Noise.Noise.Value.Data)
	}
	hashNetwork(h, e.Head)
	hashNetwork(h, e.Tail)
	hashFloats(h, e.Noise.Noise.Value.Data)
	checkDigest(t, "ensemble.Train", h, wantEnsemble)

	dec := attack.TrainDecoder(attack.Config{Arch: arch, DecoderEpochs: 1, BatchSize: 8, Seed: 3203},
		e.ClientFeatures, sp.Aux)
	h = sha256.New()
	hashNetwork(h, dec.Net)
	checkDigest(t, "attack.TrainDecoder", h, wantDecoder)

	x, _ := sp.Test.Batch([]int{0, 1})
	victim := nn.NewNetwork("victim", e.Head, e.Members[e.Selector.Indices[0]].Body)
	observed := victim.Forward(x, false)
	recon := attack.RMLE(victim, observed, x.Shape, attack.RMLEConfig{Steps: 4})
	h = sha256.New()
	hashFloats(h, recon.Data)
	checkDigest(t, "attack.RMLE", h, wantRMLE)

	r := rng.New(3204)
	stack := nn.NewNetwork("stack",
		nn.NewAdditiveNoise("learned", nn.NoiseTrainable, 2, 8, 8, 0.1, r.Split()),
		nn.NewConv2D("conv", 2, 3, 3, 1, 1, true, r),
		nn.NewLeakyReLU(0.1),
		nn.NewGlobalAvgPool(),
		nn.NewLinear("fc", 3, 2, r),
		nn.NewSigmoid(),
	)
	opt := optim.NewAdam(stack.Params(), 0.01)
	in, target := tensor.New(4, 2, 8, 8), tensor.New(4, 2)
	r.FillNormal(in.Data, 0, 1)
	r.FillNormal(target.Data, 0, 0.5)
	h = sha256.New()
	for step := 0; step < 3; step++ {
		_, grad := nn.MSELoss(stack.Forward(in, true), target)
		hashFloats(h, stack.Backward(grad).Data)
		opt.Step()
	}
	hashNetwork(h, stack)
	checkDigest(t, "trainable-noise stack", h, wantStack)
}

// hashNetwork feeds every parameter of net, then every batch-norm running
// statistic, into h.
func hashNetwork(h hash.Hash, net *nn.Network) {
	for _, p := range net.Params() {
		hashFloats(h, p.Value.Data)
	}
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Network:
			for _, sub := range v.Layers {
				walk(sub)
			}
		case *nn.BasicBlock:
			for _, bn := range []*nn.BatchNorm2D{v.BN1, v.BN2, v.ShortBN} {
				if bn != nil {
					walk(bn)
				}
			}
		case *nn.BatchNorm2D:
			hashFloats(h, v.RunMean.Data)
			hashFloats(h, v.RunVar.Data)
		}
	}
	walk(net)
}

func hashFloats(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s training bits changed: digest %s, want %s", what, got, want)
	}
}
