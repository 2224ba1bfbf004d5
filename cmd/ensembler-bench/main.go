// Command ensembler-bench regenerates the paper's evaluation tables from
// the command line:
//
//	ensembler-bench -table 1              # Table I (defense quality, 3 datasets)
//	ensembler-bench -table 2              # Table II (defense battery, CIFAR-10-like)
//	ensembler-bench -table 3              # Table III (latency model)
//	ensembler-bench -table all -scale paper
//	ensembler-bench -claims               # §IV headline percentages
//
// The serving stack is measured by `bash bench/run.sh` (see BENCHMARK.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ensembler/internal/experiments"
	"ensembler/internal/latency"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ensembler-bench: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse, regenerate the requested
// tables, returning errors instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ensembler-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
	scaleName := fs.String("scale", "small", "experiment scale: small or paper")
	seed := fs.Int64("seed", 42, "experiment seed")
	n := fs.Int("n", 10, "ensemble size for the latency model")
	claims := fs.Bool("claims", false, "also print the paper's §IV headline claims")
	verbose := fs.Bool("v", false, "log training progress")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; asking for help is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *n < 1 {
		return fmt.Errorf("invalid -n %d (want an ensemble size >= 1)", *n)
	}

	var sc experiments.Scale
	switch *scaleName {
	case "small":
		sc = experiments.Small()
	case "paper":
		sc = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q (want small or paper)", *scaleName)
	}
	var log io.Writer
	if *verbose {
		log = stderr
	}

	runI := *table == "1" || *table == "all"
	runII := *table == "2" || *table == "all" || *claims
	runIII := *table == "3" || *table == "all"
	if !runI && !runII && !runIII {
		return fmt.Errorf("unknown table %q (want 1, 2, 3, or all)", *table)
	}

	if runI {
		for _, blk := range experiments.TableI(sc, *seed, log) {
			experiments.RenderRows(stdout,
				fmt.Sprintf("\nTable I — %s (N=%d, P=%d)", blk.Kind, sc.N, blk.P), blk.Rows)
		}
	}
	if runII {
		rows := experiments.TableII(sc, *seed+1, log)
		experiments.RenderRows(stdout, "\nTable II — defense mechanisms, cifar10-like", rows)
		if *claims {
			rep := experiments.ComputeClaims(rows, sc.N)
			fmt.Fprintf(stdout, "\n§IV claims (paper → measured):\n")
			if rep.AttackFailed {
				fmt.Fprintf(stdout, "  SSIM decrease vs Single:  43.5%% → attack failed — no claim\n")
				fmt.Fprintf(stdout, "  PSNR decrease vs Single:  40.5%% → attack failed — no claim\n")
			} else {
				fmt.Fprintf(stdout, "  SSIM decrease vs Single:  43.5%% → %.1f%% (strongest attack: %s)\n", rep.SSIMDropVsSingle, rep.SSIMRow)
				fmt.Fprintf(stdout, "  PSNR decrease vs Single:  40.5%% → %.1f%% (strongest attack: %s)\n", rep.PSNRDropVsSingle, rep.PSNRRow)
			}
			fmt.Fprintf(stdout, "  latency overhead:          4.8%% → %.1f%%\n", rep.LatencyOverhead)
		}
	}
	if runIII {
		fmt.Fprintln(stdout)
		experiments.RenderTableIII(stdout, experiments.TableIII(*n))
		fmt.Fprintf(stdout, "Ensembler overhead vs Standard CI: %.1f%% (paper: 4.8%%)\n", latency.OverheadPercent(*n))
	}
	return nil
}
