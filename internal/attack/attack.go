package attack

import (
	"fmt"

	"ensembler/internal/data"
	"ensembler/internal/metrics"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
)

// Victim exposes what the adversarial server passively observes: the
// intermediate features the client transmits for an input. Implementations
// wrap the defended pipelines; the attack never touches the client's private
// weights directly (query-free threat model).
type Victim interface {
	ClientFeatures(x *tensor.Tensor) *tensor.Tensor
}

// SSIMFloor is the reconstruction SSIM below which an attack on an
// undefended pipeline counts as failed: an attack that cannot invert
// unprotected features says nothing about what a defense adds.
const SSIMFloor = 0.2

// Outcome reports reconstruction quality of one attack run. Higher SSIM and
// PSNR mean better reconstruction, i.e. worse defense.
type Outcome struct {
	Name  string
	SSIM  float64
	PSNR  float64
	Recon *tensor.Tensor // reconstructed images, for inspection
}

// String renders the outcome as a table-style row fragment.
func (o Outcome) String() string {
	return fmt.Sprintf("%s: SSIM %.3f PSNR %.2f", o.Name, o.SSIM, o.PSNR)
}

// evalBatch gathers the first n test images (or all, if fewer) as the
// victim inputs whose transmitted features the attacker inverts.
func evalBatch(eval *data.Dataset, n int) *tensor.Tensor {
	if n <= 0 || n > eval.Len() {
		n = eval.Len()
	}
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	x, _ := eval.Batch(idxs)
	return x
}

// RunDecoderAttack executes the full decoder-based MIA of the paper: train a
// shadow network against the given frozen bodies on aux data, train a
// decoder inverting the shadow head, then reconstruct the victim's private
// eval images from their observed transmitted features.
//
// evalSamples bounds how many eval images are reconstructed (0 = all).
func RunDecoderAttack(cfg Config, name string, bodies []*nn.Network, adaptive bool, victim Victim, aux, eval *data.Dataset, evalSamples int) Outcome {
	x := evalBatch(eval, evalSamples)
	observed := victim.ClientFeatures(x)
	if cfg.AlignWeight > 0 && cfg.Observed == nil {
		// The transmitted features of real victim traffic are exactly what
		// the semi-honest server records; alignment uses their statistics.
		cfg.Observed = observed
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	var best Outcome
	for r := 0; r < restarts; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)*7919
		shadow := TrainShadow(c, bodies, adaptive, aux)
		dec := TrainDecoder(c, shadow.HeadFeatures, aux)
		recon := dec.Reconstruct(observed)
		o := Outcome{
			Name:  name,
			SSIM:  metrics.BatchSSIM(recon, x),
			PSNR:  metrics.BatchPSNR(recon, x),
			Recon: recon,
		}
		if r == 0 || o.SSIM > best.SSIM {
			best = o
		}
	}
	return best
}

// SingleBodyAttacks runs one decoder MIA per server body — the attacker who
// guesses that a single network carries the signal — and returns all
// outcomes. Table I's "Ours - SSIM" and "Ours - PSNR" rows report the
// strongest of these (see BestBy).
func SingleBodyAttacks(cfg Config, bodies []*nn.Network, victim Victim, aux, eval *data.Dataset, evalSamples int) []Outcome {
	outs := make([]Outcome, len(bodies))
	for i, b := range bodies {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		outs[i] = RunDecoderAttack(c, fmt.Sprintf("single-body[%d]", i), []*nn.Network{b}, false, victim, aux, eval, evalSamples)
	}
	return outs
}

// AdaptiveAttack runs the paper's adaptive MIA: a shadow network over all N
// bodies with a learnable activation imitating the selector.
func AdaptiveAttack(cfg Config, bodies []*nn.Network, victim Victim, aux, eval *data.Dataset, evalSamples int) Outcome {
	o := RunDecoderAttack(cfg, "adaptive", bodies, true, victim, aux, eval, evalSamples)
	return o
}

// OracleDecoderAttack trains the decoder directly on the victim's true
// transmitted features for aux images — an upper bound that assumes query
// access, which the threat model forbids. It exists as a diagnostic: the gap
// between the oracle and the query-free decoder attack is the protection
// the defense derives from hiding the head, as opposed to from noise alone.
func OracleDecoderAttack(cfg Config, victim Victim, aux, eval *data.Dataset, evalSamples int) Outcome {
	dec := TrainDecoder(cfg, victim.ClientFeatures, aux)
	x := evalBatch(eval, evalSamples)
	recon := dec.Reconstruct(victim.ClientFeatures(x))
	return Outcome{
		Name:  "oracle",
		SSIM:  metrics.BatchSSIM(recon, x),
		PSNR:  metrics.BatchPSNR(recon, x),
		Recon: recon,
	}
}

// BestBy returns the outcome maximizing the chosen metric — the strongest
// reconstruction, i.e. the least favorable case for the defense, which is
// what the paper reports.
func BestBy(outs []Outcome, metric string) Outcome {
	if len(outs) == 0 {
		panic("attack: BestBy on empty outcomes")
	}
	best := outs[0]
	for _, o := range outs[1:] {
		switch metric {
		case "ssim":
			if o.SSIM > best.SSIM {
				best = o
			}
		case "psnr":
			if o.PSNR > best.PSNR {
				best = o
			}
		default:
			panic(fmt.Sprintf("attack: unknown metric %q", metric))
		}
	}
	return best
}
