// Command bench is the serving stack's one benchmark: four saturated
// closed-loop workloads over loopback TCP, seven end-to-end metrics each, a
// per-layer ledger from micro-runs of public functions, and a traced run
// whose spans are recorded from this package, around the calls into each
// layer. See README.md for why each workload exists; BENCHMARK.json at the
// repository root is the contract this program prints to.
//
//	bash bench/run.sh -seed 7                      # every workload, both phases
//	bash bench/run.sh -workload edge_f64 -trace 0  # end-to-end metrics only
//	bash bench/run.sh -selfcheck -runs 10          # two sets, judged against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"ensembler/internal/comm"
)

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the input pool and the rotation draws")
	seconds := flag.Int("seconds", 16, "nominal length of the measured phase; fixes the request count, not a stop time")
	traceFlag := flag.Int("trace", 2, "0: end-to-end metrics (untraced); 1: per-layer metrics (micro-runs and traced run); 2: both")
	out := flag.String("out", "bench/out", "directory for model stores (removed at exit) and trace files")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of end-to-end runs and judge their agreement against the bounds")
	runs := flag.Int("runs", 3, "with -selfcheck: runs per workload in each set, each at its own seed")
	flag.Parse()

	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 2 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace one of 0, 1, 2, and no positional arguments")
		os.Exit(2)
	}
	var selected []*workload
	for _, w := range workloads() {
		if *workloadFlag == "all" || *workloadFlag == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(selected, *seed, *seconds, *runs, *out))
	}

	// Both vCPUs of the reference host busy and nothing oversubscribed: two
	// generators, two server workers, serial kernels under the worker pool.
	runtime.GOMAXPROCS(generators)
	comm.PinKernelParallelism(generators)

	code := 0
	for _, w := range selected {
		if !runWorkload(w, *seed, *seconds, *traceFlag, *out) {
			code = 1
		}
	}
	os.Exit(code)
}

// runWorkload runs the requested phases of one workload, prints every metric
// by name with its unit, and ends with the result object as the last line.
func runWorkload(w *workload, seed int64, seconds, traceMode int, out string) bool {
	fmt.Printf("# %s: %s\n", w.name, w.why)
	fmt.Printf("# GOMAXPROCS=%d nproc=%d %s seed=%d seconds=%d requests=%d rounds=%d generators=%d rows/request=%d N=%d P=%d %s shards=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), seed, seconds, w.requests(seconds), rounds, generators,
		w.rows, w.n, w.p, w.precision, w.shards)

	r := newRun(w, seed, seconds, out, os.Stdout)
	defer func() {
		for _, dir := range r.dirs {
			os.RemoveAll(dir)
		}
	}()
	var table []metric
	total := result{metrics: map[string]float64{}}
	var failure error
	phases := []struct {
		on    bool
		run   func() (result, error)
		table []metric
	}{{traceMode != 1, r.endToEnd, endToEnd}, {traceMode != 0, r.layers, perLayer}}
	for _, p := range phases {
		if !p.on || failure != nil {
			continue
		}
		res, err := p.run()
		total.attempted += res.attempted
		total.failed += res.failed
		for k, v := range res.metrics {
			total.metrics[k] = v
		}
		table = append(table, p.table...)
		failure = err
	}

	line, err := report(os.Stdout, w.name, table, total, failure == nil)
	if failure == nil {
		failure = err
	}
	if failure != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, failure)
	}
	fmt.Println(line)
	return failure == nil
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one "workload/metric value unit" line per table entry and
// returns the result object. An end-to-end metric must be present and
// nonzero; a per-layer metric a workload has no use for (shard.* without a
// fleet) reads 0.
func report(log io.Writer, name string, table []metric, res result, correct bool) (string, error) {
	var err error
	metrics := make(map[string]reported, len(table))
	for _, m := range table {
		v, ok := res.metrics[m.name]
		if m.bound > 0 && correct && (!ok || v == 0) {
			err = fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		metrics[m.name] = reported{v, m.unit}
		fmt.Fprintf(log, "%s/%s %.6g %s\n", name, m.name, v, m.unit)
	}
	for k := range res.metrics {
		if !slices.ContainsFunc(table, func(m metric) bool { return m.name == k }) {
			err = fmt.Errorf("metric %s is not in the benchmark's tables", k)
		}
	}
	fmt.Fprintf(log, "%s attempted %d, succeeded %d, failed %d\n", name, res.attempted, res.attempted-res.failed, res.failed)
	line, jerr := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{correct && err == nil && res.failed == 0, max(res.attempted, 1), res.failed, metrics})
	if err == nil {
		err = jerr
	}
	return string(line), err
}
