// Package audit measures how much a pipeline's transmitted features leak,
// the way the paper's Tables I/II do: it mounts the repo's model-inversion
// attack against the pipeline and scores the reconstructions (SSIM/PSNR)
// against a calibration floor.
//
// The score is the secret holder's measurement, taken once per version at
// publish time and recorded in the version's manifest (registry.Leakage).
// In the paper's threat model (§II-B) the serving box is the adversary, so
// the server never runs an attack: it only reports the score the holder
// recorded. The score uses the oracle decoder, which trains on the client
// head's true features — the strongest offline adversary the repo has, and
// one only the holder of the head can mount.
package audit

import (
	"fmt"

	"ensembler/internal/attack"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/metrics"
	"ensembler/internal/registry"
	"ensembler/internal/tensor"
)

// The score's fixed calibration: every version of every model is scored on
// the same synthetic CIFAR-10-like images with the same attack seed, so two
// versions' scores differ only because their pipelines do.
const (
	strategy      = "oracle" // the attack Score mounts
	calibImages   = 64       // attacker's auxiliary images
	calibSeed     = 424242
	evalSamples   = 16 // eval images generated, reconstructed and scored
	decoderEpochs = 2
	attackBatch   = 16
	attackSeed    = 1 + 7919
)

// Score measures the pipeline's leakage: it trains the oracle inversion
// decoder on the features the pipeline's client transmits for the
// calibration images, reconstructs the eval images from their features, and
// returns the reconstruction SSIM and PSNR beside the calibration floor.
// The result is deterministic in the pipeline's weights; publishing it
// validates it (registry.PublishOptions.Leakage).
func Score(e *ensemble.Ensembler) (registry.Leakage, error) {
	arch := e.Cfg.Arch
	if arch.InC != 3 {
		return registry.Leakage{}, fmt.Errorf("audit: the synthetic calibration images are RGB; the pipeline expects %d input channels", arch.InC)
	}
	// The score never reads the Train split; 8 keeps it small (0 means 512).
	calib := data.Generate(data.Config{
		Kind: data.CIFAR10Like, H: arch.H, W: arch.W,
		Train: 8, Aux: calibImages, Test: evalSamples, Seed: calibSeed,
	})
	victim := runtimeVictim{features: e.NewClientRuntime().Features}
	cfg := attack.Config{Arch: arch, DecoderEpochs: decoderEpochs, BatchSize: attackBatch, Seed: attackSeed}
	out := attack.OracleDecoderAttack(cfg, victim, calib.Aux, calib.Test, evalSamples)
	return registry.Leakage{
		Strategy:    strategy,
		SSIM:        out.SSIM,
		PSNR:        out.PSNR,
		Floor:       CalibrationFloor(calib.Test, evalSamples),
		Seed:        attackSeed,
		Calibration: calibImages,
	}, nil
}

// runtimeVictim adapts a client runtime to attack.Victim. The runtime is
// private to the score, so scoring never touches the caching forward state
// of the pipeline's own head and noise networks.
type runtimeVictim struct {
	features func(x *tensor.Tensor) *tensor.Tensor
}

// ClientFeatures clones: the attack keeps the features it observes, and a
// runtime's result only lives until its next Features call.
func (v runtimeVictim) ClientFeatures(x *tensor.Tensor) *tensor.Tensor { return v.features(x).Clone() }

// CalibrationFloor is the SSIM of the best input-independent reconstruction
// of the eval set: every image "reconstructed" as the set's mean image. An
// attack scoring at or below this floor has extracted nothing from the
// transmitted features; thresholds should sit above it by a deliberate
// margin. n bounds how many eval images enter the floor (0 = all),
// mirroring the eval bound of the scored attack.
func CalibrationFloor(eval *data.Dataset, n int) float64 {
	if n <= 0 || n > eval.Len() {
		n = eval.Len()
	}
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	x, _ := eval.Batch(idxs)
	mean := attack.MeanFeatureMap(x)
	recon := tensor.New(x.Shape...)
	per := mean.Size()
	for i := 0; i < n; i++ {
		copy(recon.Data[i*per:(i+1)*per], mean.Data)
	}
	return metrics.BatchSSIM(recon, x)
}
