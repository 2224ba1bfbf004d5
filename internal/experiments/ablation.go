package experiments

import (
	"fmt"
	"io"

	"ensembler/internal/attack"
	"ensembler/internal/data"
	"ensembler/internal/defense"
	"ensembler/internal/latency"
	"ensembler/internal/split"
)

// AblationPoint is one configuration of an ablation sweep with its measured
// defense quality.
type AblationPoint struct {
	Label    string
	Acc      float64
	BestSSIM float64 // strongest single-body attack
	BestPSNR float64
	Adaptive float64 // adaptive attack SSIM
}

// RenderAblation prints a sweep.
func RenderAblation(w io.Writer, title string, pts []AblationPoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-18s %8s %10s %10s %10s\n", "Config", "Acc", "bestSSIM", "bestPSNR", "adaptSSIM")
	for _, p := range pts {
		fmt.Fprintf(w, "%-18s %8.3f %10.3f %10.2f %10.3f\n", p.Label, p.Acc, p.BestSSIM, p.BestPSNR, p.Adaptive)
	}
}

// evalEnsemble trains one Ensembler configuration and scores it against the
// full attack battery.
func evalEnsemble(sc Scale, kind data.Kind, n, p int, lambda float64, stage1Noise bool, seed int64) AblationPoint {
	sp := data.Generate(data.Config{Kind: kind, Train: sc.Train, Aux: sc.Aux, Test: sc.Test, Seed: seed})
	arch := split.DefaultArch(kind)
	cfg := ensemblerConfig(sc, arch, p, seed)
	cfg.N = n
	cfg.Lambda = lambda
	cfg.Stage1Noise = stage1Noise
	ens := defense.TrainEnsembler(cfg, sp.Train, nil)
	acfg := sc.attackConfig(arch, seed+17)
	singles := attack.SingleBodyAttacks(acfg, ens.Bodies(), ens, sp.Aux, sp.Test, sc.EvalSamples)
	ad := attack.AdaptiveAttack(acfg, ens.Bodies(), ens, sp.Aux, sp.Test, sc.EvalSamples)
	return AblationPoint{
		Acc:      ens.Accuracy(sp.Test),
		BestSSIM: attack.BestBy(singles, "ssim").SSIM,
		BestPSNR: attack.BestBy(singles, "psnr").PSNR,
		Adaptive: ad.SSIM,
	}
}

// SweepP ablates the secret subset size P at fixed N: larger P forces the
// Stage-3 head to satisfy more bodies simultaneously, pushing it further
// from any single-body optimum (and costing accuracy).
func SweepP(sc Scale, ps []int, seed int64) []AblationPoint {
	var out []AblationPoint
	for _, p := range ps {
		if p < 1 || p > sc.N {
			continue
		}
		pt := evalEnsemble(sc, data.CIFAR10Like, sc.N, p, sc.Lambda, true, seed)
		pt.Label = fmt.Sprintf("N=%d P=%d", sc.N, p)
		out = append(out, pt)
	}
	return out
}

// SweepLambda ablates the Eq. 3 regularizer strength: λ=0 removes the
// quasi-orthogonality constraint (the head may drift back toward a
// stage-1-like solution), large λ trades accuracy for divergence.
func SweepLambda(sc Scale, lambdas []float64, seed int64) []AblationPoint {
	var out []AblationPoint
	for _, l := range lambdas {
		pt := evalEnsemble(sc, data.CIFAR10Like, sc.N, sc.P, l, true, seed)
		pt.Label = fmt.Sprintf("λ=%.2g", l)
		out = append(out, pt)
	}
	return out
}

// SweepStage1Noise ablates Stage 1's per-member noise injection — the
// mechanism that makes the N heads mutually distinct. Without it the DR-N
// row of Table II shows weaker protection.
func SweepStage1Noise(sc Scale, seed int64) []AblationPoint {
	var out []AblationPoint
	for _, enabled := range []bool{true, false} {
		pt := evalEnsemble(sc, data.CIFAR10Like, sc.N, sc.P, sc.Lambda, enabled, seed)
		if enabled {
			pt.Label = "stage1 noise ON"
		} else {
			pt.Label = "stage1 noise OFF"
		}
		out = append(out, pt)
	}
	return out
}

// LatencySweepN reports the cost model across ensemble sizes — the latency
// side of choosing N (privacy grows as 2^N, communication linearly).
func LatencySweepN(ns []int) []latency.Breakdown {
	var out []latency.Breakdown
	for _, n := range ns {
		sc := latency.Ensembler(n)
		sc.Name = fmt.Sprintf("N=%d", n)
		out = append(out, latency.Run(sc))
	}
	return out
}

// AlignedAttackStudy measures the stronger-than-paper attacker that aligns
// its shadow head to passively observed traffic statistics (the alignment
// term of attack.Config.AlignWeight, which the audit's shadow replay also
// uses): it returns the strongest single-body attack without and with
// alignment against the same trained pipeline. Alignment partially defeats
// the defense when the attacked body is one of the secretly selected ones.
func AlignedAttackStudy(sc Scale, seed int64) (plain, aligned attack.Outcome) {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, Train: sc.Train, Aux: sc.Aux, Test: sc.Test, Seed: seed})
	arch := split.DefaultArch(data.CIFAR10Like)
	ens := defense.TrainEnsembler(ensemblerConfig(sc, arch, sc.P, seed), sp.Train, nil)

	acfg := sc.attackConfig(arch, seed+17)
	plain = attack.BestBy(attack.SingleBodyAttacks(acfg, ens.Bodies(), ens, sp.Aux, sp.Test, sc.EvalSamples), "ssim")
	plain.Name = "paper attack"

	acfg.AlignWeight = 1
	aligned = attack.BestBy(attack.SingleBodyAttacks(acfg, ens.Bodies(), ens, sp.Aux, sp.Test, sc.EvalSamples), "ssim")
	aligned.Name = "traffic-aligned attack"
	return plain, aligned
}
