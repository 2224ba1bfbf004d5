// Package latency implements the analytic cost model behind Table III: the
// wall-clock time to push a batch of 128 images through Standard CI,
// Ensembler (N server bodies, parallel execution), and an encrypted-
// inference reference point (STAMP). Compute times derive from the flops
// package's ResNet-18 spec and per-device effective throughput; transfer
// times from a bandwidth+latency link model. Device and link parameters are
// calibrated so Standard CI reproduces the paper's measured operating point
// (Raspberry Pi client, A6000 server, wired LAN); see DESIGN.md for the
// substitution rationale.
package latency

import (
	"fmt"

	"ensembler/internal/flops"
)

// Device models a compute endpoint by its effective (sustained, not peak)
// throughput in FLOP/s and the number of independent executors available for
// running ensemble bodies concurrently.
type Device struct {
	Name string
	// EffectiveFLOPS is sustained fp32 throughput for this workload.
	EffectiveFLOPS float64
	// Parallelism is how many server bodies can run concurrently without
	// slowdown (GPU streams / multi-GPU); 1 serializes the ensemble.
	Parallelism int
}

// Link models the client-server network path with asymmetric effective
// throughput (the edge client's send path is the bottleneck; the server's
// return path runs much closer to line rate).
type Link struct {
	Name string
	// UpBps is effective client→server payload bandwidth, bytes/second.
	UpBps float64
	// DownBps is effective server→client payload bandwidth, bytes/second.
	DownBps float64
	// RTTSeconds is the per-round-trip latency overhead.
	RTTSeconds float64
}

// Upload returns the time to move bytes client→server.
func (l Link) Upload(bytes float64) float64 { return bytes/l.UpBps + float64(l.RTTSeconds/2) }

// Download returns the time to move bytes server→client.
func (l Link) Download(bytes float64) float64 { return bytes/l.DownBps + float64(l.RTTSeconds/2) }

// RaspberryPi4 approximates a Raspberry Pi-class edge client. The value is
// calibrated so the ResNet-18 head+tail on a batch of 128 costs ≈0.66 s as
// the paper measures, rather than taken from a peak-GFLOPS datasheet.
func RaspberryPi4() Device {
	return Device{Name: "raspberry-pi-4", EffectiveFLOPS: 0.71e9, Parallelism: 1}
}

// A6000 approximates an NVIDIA A6000 server at the modest utilization a
// batch-128 CIFAR ResNet-18 achieves (small kernels leave most of the GPU
// idle); calibrated so the body costs ≈0.98 s per batch as the paper
// measures. Parallelism 10 reflects concurrent streams for ensemble bodies.
func A6000() Device {
	return Device{Name: "a6000", EffectiveFLOPS: 36.2e9, Parallelism: 10}
}

// WiredLAN approximates the paper's wired client-server network, calibrated
// so Standard CI's communication totals ≈2.30 s for the batch of [64,16,16]
// features; the downlink runs faster than the Pi's constrained send path.
func WiredLAN() Link {
	return Link{Name: "wired-lan", UpBps: 3.69e6, DownBps: 17e6, RTTSeconds: 0.004}
}

// Scenario describes one deployment to cost out.
type Scenario struct {
	Name   string
	Spec   *flops.Spec
	Batch  int
	N      int // server bodies (1 = standard CI)
	Client Device
	Server Device
	Link   Link
	// EncryptedFactor, when > 0, multiplies every cost component to model
	// encrypted inference (the STAMP reference row); 0 disables.
	EncryptedFactor float64
}

// Breakdown is one row of Table III.
type Breakdown struct {
	Name          string
	Client        float64
	Server        float64
	Communication float64
}

// Total returns the end-to-end batch time.
func (b Breakdown) Total() float64 { return b.Client + b.Server + b.Communication }

// String formats the row like the paper's table.
func (b Breakdown) String() string {
	return fmt.Sprintf("%-12s client %.2fs server %.2fs comm %.2fs total %.2fs",
		b.Name, b.Client, b.Server, b.Communication, b.Total())
}

// Run evaluates the scenario.
//
// Client time: head + tail compute for the batch (the client's work is
// identical in Standard CI and Ensembler — §III-D).
// Server time: N body passes, divided by the server's parallelism (§III-D:
// the O(N) cost parallelizes because the bodies are independent).
// Communication: upload of the intermediate features plus download of N
// feature vectors per image.
func Run(sc Scenario) Breakdown {
	b := float64(sc.Batch)
	n := sc.N
	if n <= 0 {
		n = 1
	}
	// The client's work — head plus tail — is independent of N (§III-D);
	// the tail's FC grows with P but is negligible at 512·P inputs.
	client := b * (sc.Spec.HeadFLOPs() + sc.Spec.TailFLOPs()) / sc.Client.EffectiveFLOPS
	waves := (n + sc.Server.Parallelism - 1) / sc.Server.Parallelism
	server := b * sc.Spec.BodyFLOPs() * float64(waves) / sc.Server.EffectiveFLOPS
	// Ensemble bodies contend for memory bandwidth even across streams;
	// charge a 0.4% per-body contention overhead (calibrated to the paper's
	// +0.04 s server delta at N=10).
	if n > 1 {
		server *= 1 + float64(0.004*float64(n))
	}
	up := sc.Link.Upload(b * sc.Spec.FeatureBytes())
	down := sc.Link.Download(b * float64(n) * sc.Spec.ServerReturnBytes())
	comm := up + down
	out := Breakdown{Name: sc.Name, Client: client, Server: server, Communication: comm}
	if sc.EncryptedFactor > 0 {
		out.Client *= sc.EncryptedFactor
		out.Server *= sc.EncryptedFactor
		out.Communication *= sc.EncryptedFactor
	}
	return out
}

// StandardCI builds the paper's baseline scenario: ResNet-18, batch 128,
// one server body.
func StandardCI() Scenario {
	return Scenario{
		Name:   "Standard CI",
		Spec:   flops.ResNet18(32, 10, true),
		Batch:  128,
		N:      1,
		Client: RaspberryPi4(),
		Server: A6000(),
		Link:   WiredLAN(),
	}
}

// Ensembler builds the paper's defended scenario: N=10 server bodies.
func Ensembler(n int) Scenario {
	sc := StandardCI()
	sc.Name = "Ensembler"
	sc.N = n
	return sc
}

// LoopbackBench builds the scenario the serving benchmark (bench/run.sh)
// actually measures, as opposed to the paper's Pi+LAN deployment: both ends
// on one host over loopback (microseconds of RTT, gigabytes per second),
// an identity client head (the harness transmits raw features), and serial
// per-request body execution (the serving pool is the one level of
// parallelism). Predictions from this scenario are the ones comparable to a
// loopback measurement: comparing one against a Pi+LAN prediction once read
// as 0.94× measured against 4.5× predicted — two different experiments, not
// a regression.
func LoopbackBench(n int) Scenario {
	return Scenario{
		Name:  "loopback-bench",
		Spec:  flops.ResNet18(32, 10, true),
		Batch: 1,
		N:     n,
		// One host: a single general-purpose core on each side of the pipe.
		Client: Device{Name: "bench-host", EffectiveFLOPS: 40e9, Parallelism: 1},
		Server: Device{Name: "bench-host", EffectiveFLOPS: 5e9, Parallelism: 1},
		Link:   Link{Name: "loopback", UpBps: 4e9, DownBps: 4e9, RTTSeconds: 60e-6},
	}
}

// STAMP builds the encrypted-inference reference row. The paper quotes
// STAMP's reported LAN-GPU number (309.7 s for the same batch) rather than
// measuring it; we model it as a uniform slowdown factor over Standard CI
// calibrated to that figure (~78.6×).
func STAMP() Scenario {
	sc := StandardCI()
	sc.Name = "STAMP"
	sc.EncryptedFactor = 78.6
	return sc
}

// TableIII produces the three rows of the paper's latency table for the
// given ensemble size (the paper uses N=10).
func TableIII(n int) []Breakdown {
	return []Breakdown{Run(StandardCI()), Run(Ensembler(n)), Run(STAMP())}
}

// OverheadPercent returns Ensembler's total-time overhead over Standard CI
// (the paper reports 4.8%).
func OverheadPercent(n int) float64 {
	std := Run(StandardCI()).Total()
	ens := Run(Ensembler(n)).Total()
	return 100 * (ens - std) / std
}

// ParallelismSweep reports Ensembler total latency as server parallelism
// varies — the §III-D claim that the O(N) server cost parallelizes away.
func ParallelismSweep(n int, parallelisms []int) []Breakdown {
	var out []Breakdown
	for _, p := range parallelisms {
		sc := Ensembler(n)
		sc.Server.Parallelism = p
		sc.Name = fmt.Sprintf("Ensembler/p=%d", p)
		out = append(out, Run(sc))
	}
	return out
}
