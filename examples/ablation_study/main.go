// Ablation study: the design-choice sweeps DESIGN.md calls out, at a small
// scale — subset size P, regularizer strength λ, Stage-1 noise on/off, and
// the latency cost of growing N. Also demonstrates a stronger-than-paper
// "traffic-aligned" attacker that trains its shadow on observed traffic.
//
//	go run ./examples/ablation_study        (several minutes of CPU)
package main

import (
	"fmt"
	"os"

	"ensembler/internal/experiments"
)

func main() {
	sc := experiments.Small()
	// Trim the scale so the four sweeps stay in the minutes range.
	sc.N, sc.P = 3, 2
	sc.Train, sc.Aux, sc.EvalSamples = 320, 160, 32
	sc.ShadowEpochs = 15

	fmt.Println("== subset size P (privacy vs accuracy) ==")
	experiments.RenderAblation(os.Stdout, "", experiments.SweepP(sc, []int{1, 2, 3}, 41))

	fmt.Println("\n== Eq. 3 regularizer strength λ ==")
	experiments.RenderAblation(os.Stdout, "", experiments.SweepLambda(sc, []float64{0, 0.5, 2}, 42))

	fmt.Println("\n== Stage-1 per-member noise (what makes the N heads distinct) ==")
	experiments.RenderAblation(os.Stdout, "", experiments.SweepStage1Noise(sc, 43))

	fmt.Println("\n== latency vs ensemble size (cost model) ==")
	for _, row := range experiments.LatencySweepN([]int{1, 5, 10, 20}) {
		fmt.Println(row)
	}

	fmt.Println("\n== stronger-than-paper attacker: traffic-statistics alignment ==")
	plain, aligned := experiments.AlignedAttackStudy(sc, 44)
	fmt.Printf("  %s\n  %s\n", plain, aligned)
	fmt.Println("  (alignment partially defeats the defense when the attacked body is one")
	fmt.Println("   of the secretly selected ones: compare the two SSIMs above)")
}
