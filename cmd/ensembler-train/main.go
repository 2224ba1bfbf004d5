// Command ensembler-train runs the full three-stage Ensembler training
// pipeline on a synthetic workload and saves the trained pipeline (all N
// member networks, the secret selection, and the final head/noise/tail) to
// a file consumable by ensembler-attack and ensembler-serve.
//
// With -model-dir the pipeline is published into a versioned registry
// directory instead, with its leakage score (audit.Score: the oracle
// inversion attack's reconstruction SSIM/PSNR against the calibration
// floor) recorded in the version's manifest for ensembler-serve to report.
// Adding -shards K additionally records the intended K-shard fleet layout,
// so every ensembler-serve -shard k/K fleet member can validate its slice
// of the ensemble against what training committed to.
//
//	ensembler-train -kind cifar10 -n 10 -p 4 -out model.gob
//	ensembler-train -kind cifar10 -n 9 -p 3 -model-dir models/ -shards 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ensembler/internal/audit"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
	"ensembler/internal/split"
)

// kindFromName maps the CLI workload name to a data.Kind.
func kindFromName(name string) (data.Kind, error) {
	switch name {
	case "cifar10":
		return data.CIFAR10Like, nil
	case "cifar100":
		return data.CIFAR100Like, nil
	case "celeba":
		return data.CelebALike, nil
	}
	return 0, fmt.Errorf("unknown workload %q (want cifar10, cifar100, or celeba)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ensembler-train: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse, train, persist, returning
// errors instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ensembler-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kindName := fs.String("kind", "cifar10", "workload: cifar10, cifar100, celeba")
	n := fs.Int("n", 5, "ensemble size N")
	p := fs.Int("p", 2, "secretly selected subset size P")
	sigma := fs.Float64("sigma", 0.05, "fixed noise std σ")
	lambda := fs.Float64("lambda", 1.0, "Eq. 3 regularizer strength λ")
	trainN := fs.Int("train", 448, "private training samples")
	epochs1 := fs.Int("stage1-epochs", 5, "Stage 1 epochs per member")
	epochs3 := fs.Int("stage3-epochs", 8, "Stage 3 epochs")
	seed := fs.Int64("seed", 1, "training seed")
	out := fs.String("out", "ensembler.gob", "output model path (single-file mode)")
	modelDir := fs.String("model-dir", "", "publish into a versioned model registry directory instead of -out")
	modelName := fs.String("model-name", "", "model name inside -model-dir (default: the workload kind)")
	shards := fs.Int("shards", 0, "record a K-shard fleet layout in the manifest (registry mode; 0 = unsharded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *n <= 0 || *p <= 0 || *p > *n {
		return fmt.Errorf("invalid ensemble shape N=%d P=%d (want 0 < P ≤ N)", *n, *p)
	}
	if *shards != 0 && *modelDir == "" {
		return fmt.Errorf("-shards records the fleet layout in a registry manifest; it requires -model-dir")
	}
	if *shards < 0 || *shards > *n {
		return fmt.Errorf("invalid shard count %d for N=%d (want 0..N)", *shards, *n)
	}

	kind, err := kindFromName(*kindName)
	if err != nil {
		return err
	}
	sp := data.Generate(data.Config{Kind: kind, Train: *trainN, Aux: 1, Test: 256, Seed: *seed})
	cfg := ensemble.Config{
		Arch: split.DefaultArch(kind), N: *n, P: *p, Sigma: *sigma, Lambda: *lambda, Seed: *seed,
		Stage1:      split.TrainOptions{Epochs: *epochs1, BatchSize: 32, LR: 0.05},
		Stage3:      split.TrainOptions{Epochs: *epochs3, BatchSize: 32, LR: 0.05},
		Stage1Noise: true,
	}
	fmt.Fprintf(stdout, "training Ensembler on %s (N=%d, P=%d, σ=%.2f, λ=%.1f)...\n", kind, *n, *p, *sigma, *lambda)
	e := ensemble.Train(cfg, sp.Train, stdout)
	fmt.Fprintf(stdout, "test accuracy: %.3f\n", e.Accuracy(sp.Test))
	if *modelDir != "" {
		// Registry mode: the store assigns the next version and writes the
		// artifact atomically, so a serving ensembler-serve -model-dir picks
		// it up on its next SIGHUP with zero downtime. The leakage score is
		// measured here, where the head is held, and never by the server.
		store, err := registry.Create(*modelDir)
		if err != nil {
			return fmt.Errorf("opening model dir: %w", err)
		}
		name := *modelName
		if name == "" {
			name = *kindName
		}
		leak, err := audit.Score(e)
		if err != nil {
			return fmt.Errorf("scoring leakage: %w", err)
		}
		fmt.Fprintf(stdout, "leakage: %s attack SSIM %.3f, PSNR %.2f dB (calibration floor %.3f)\n",
			leak.Strategy, leak.SSIM, leak.PSNR, leak.Floor)
		v, err := store.PublishWith(name, e, registry.PublishOptions{Shards: *shards, Leakage: &leak})
		if err != nil {
			return fmt.Errorf("publishing: %w", err)
		}
		fmt.Fprintf(stdout, "published %s v%d to %s", name, v, *modelDir)
		if *shards > 0 {
			fmt.Fprintf(stdout, " for a %d-shard fleet", *shards)
		}
		fmt.Fprintln(stdout, " (selection stays inside the artifact — guard it)")
		return nil
	}
	if err := e.SaveFile(*out); err != nil {
		return fmt.Errorf("saving: %w", err)
	}
	fmt.Fprintf(stdout, "saved pipeline to %s (selection stays inside the file — guard it)\n", *out)
	return nil
}
