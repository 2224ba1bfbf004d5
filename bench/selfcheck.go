package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// selfCheck is the repeatability test the acceptance driver applies, run on
// one binary: two sets of runs per workload, every run a fresh process at its
// own seed, the workload order reversed in the second set. Per workload and
// end-to-end metric it prints both medians, how much worse the second is, the
// interquartile spread of each set as a share of its median, and PASS or FAIL
// against the metric's bound (spreads are judged for every metric but
// setup_s, as the driver does). Returns the process exit code.
func selfCheck(ws []*workload, seed int64, seconds, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		order := slices.Clone(ws)
		if set == 1 {
			slices.Reverse(order)
		}
		for r := 0; r < runs; r++ {
			for _, w := range order {
				s := seed + int64(set*runs+r)
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", out)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n", w.name, s, err)
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res struct {
					Correct bool
					Metrics map[string]reported
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: no correct result (%v)\n", w.name, s, err)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for k, v := range res.Metrics {
					values[set][w.name][k] = append(values[set][w.name][k], v.Value)
				}
				fmt.Printf("# set %d run %d %s seed %d done\n", set+1, r+1, w.name, s)
			}
		}
	}

	code := 0
	fmt.Printf("%-16s %-19s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound")
	for _, w := range ws {
		for _, m := range endToEnd {
			a, b := values[0][w.name][m.name], values[1][w.name][m.name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			worse := (bm - am) / am
			if m.better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := "PASS"
			if worse > m.bound || (m.name != "setup_s" && runs >= 4 && max(spreadA, spreadB) > m.bound) {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-16s %-19s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.1f%% %s\n",
				w.name, m.name, am, bm, worse*100, spreadA*100, spreadB*100, m.bound*100, verdict)
		}
	}
	return code
}
