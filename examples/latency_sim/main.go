// Latency study: regenerates the paper's Table III from the analytic cost
// model (full ResNet-18, batch of 128, Raspberry-Pi-class client + A6000-
// class server + wired LAN), then sweeps server parallelism to demonstrate
// the §III-D claim that Ensembler's O(N) server cost parallelizes away, and
// ensemble size to show how communication grows with N.
//
//	go run ./examples/latency_sim
package main

import (
	"fmt"

	"ensembler/internal/flops"
	"ensembler/internal/latency"
)

func main() {
	spec := flops.ResNet18(32, 10, true)
	fmt.Printf("ResNet-18 @32px: head %.1f MFLOPs | body %.1f MFLOPs | tail %.3f MFLOPs per image\n",
		spec.HeadFLOPs()/1e6, spec.BodyFLOPs()/1e6, spec.TailFLOPs()/1e6)
	fmt.Printf("transmitted feature: %.0f KiB/image ([64,16,16] float32, as in the paper)\n\n",
		spec.FeatureBytes()/1024)

	fmt.Println("Table III — time (s) for a batch of 128 images")
	for _, row := range latency.TableIII(10) {
		fmt.Println(row)
	}
	fmt.Printf("Ensembler overhead vs Standard CI: %.1f%%  (paper: 4.8%%)\n\n", latency.OverheadPercent(10))

	fmt.Println("§III-D — the O(N) server cost parallelizes:")
	for _, row := range latency.ParallelismSweep(10, []int{1, 2, 5, 10}) {
		fmt.Println(row)
	}
	fmt.Println()

	fmt.Println("scaling the ensemble (full parallelism):")
	for _, n := range []int{1, 5, 10, 20, 40} {
		sc := latency.Ensembler(n)
		sc.Server.Parallelism = n
		b := latency.Run(sc)
		fmt.Printf("N=%-3d total %.2fs (comm %.2fs)\n", n, b.Total(), b.Communication)
	}
}
