package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 100}, {0.90, 90}, {0.01, 10}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %d", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []float64{812, 640, 905, 871, 866, 1010, 790, 845, 860}
	if got := median(rounds); got != 860 {
		t.Errorf("median of 9 rounds = %v, want 860", got)
	}
	if rounds[0] != 812 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// Values from Python: statistics.quantiles(range(1, 11), n=4) and
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("pi digits: got %v %v %v, want 1.25 3.5 5.75", q1, q2, q3)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // request
		{ID: 2, Parent: 1, Start: 0, End: 10},   // head
		{ID: 3, Parent: 1, Start: 10, End: 70},  // scatter to shard 0
		{ID: 4, Parent: 1, Start: 10, End: 90},  // scatter to shard 1, overlapping
		{ID: 5, Parent: 4, Start: 20, End: 50},  // nested under shard 1's exchange
		{ID: 6, Parent: 1, Start: 95, End: 120}, // runs past the parent's end
		{ID: 7, Parent: 99, Start: 0, End: 5},   // parent not recorded
	}
	want := map[int32]int64{
		1: 5, // 100 - [0,10] - [10,90] - [95,100]
		2: 10,
		3: 60,
		4: 50, // 80 - [20,50]
		5: 30,
		6: 25,
		7: 5,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	w := workloads()[0]
	a, b, c := inputPool(w, 7), inputPool(w, 7), inputPool(w, 8)
	if len(a) != poolSize || !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different input pools")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same input pool")
	}
	if reflect.DeepEqual(a[0].Data, a[1].Data) {
		t.Error("pool entries repeat")
	}
	ra, rb, rc := rotationSeeds(7, 8), rotationSeeds(7, 8), rotationSeeds(8, 8)
	if len(ra) != 8 || !reflect.DeepEqual(ra, rb) || reflect.DeepEqual(ra, rc) {
		t.Errorf("rotation seeds %v / %v / %v", ra, rb, rc)
	}
	for _, s := range ra {
		if s < 0 {
			t.Errorf("negative rotation seed %d", s)
		}
	}
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Paths      []string
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTablesMatchContract(t *testing.T) {
	c := readContract(t)
	for _, pair := range []struct {
		table []metric
		want  []contractMetric
	}{{endToEnd, c.EndToEnd}, {perLayer, c.PerLayer}} {
		if len(pair.table) != len(pair.want) {
			t.Fatalf("table has %d metrics, BENCHMARK.json %d", len(pair.table), len(pair.want))
		}
		for i, m := range pair.table {
			if got := (contractMetric{m.name, m.unit, m.better, m.bound}); got != pair.want[i] {
				t.Errorf("metric %d: table %+v, BENCHMARK.json %+v", i, got, pair.want[i])
			}
		}
	}
	ws := workloads()
	if len(ws) != len(c.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json %d", len(ws), len(c.Workloads))
	}
	for i, w := range ws {
		if w.name != c.Workloads[i].Name || w.why != c.Workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from BENCHMARK.json", i, w.name, w.why)
		}
		if n := w.requests(c.RunSeconds); n <= 0 || n%rounds != 0 || n/4/tracedRounds == 0 {
			t.Errorf("%s: %d requests at run_seconds do not split into rounds", w.name, n)
		}
	}
}

// The result object names every metric of its table exactly once, with the
// contract's unit and the value as measured; nothing else appears.
func TestReportNamesEveryMetricOnce(t *testing.T) {
	c := readContract(t)
	for _, pair := range []struct {
		table []metric
		want  []contractMetric
	}{{endToEnd, c.EndToEnd}, {perLayer, c.PerLayer}} {
		res := result{metrics: map[string]float64{}, attempted: 10}
		for i, m := range pair.table {
			res.metrics[m.name] = float64(i) + 1.000000123456789
		}
		line, err := report(io.Discard, "w", pair.table, res, true)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 4 || string(out["correct"]) != "true" || string(out["attempted"]) != "10" || string(out["failed"]) != "0" {
			t.Fatalf("result object %s", line)
		}
		var metrics map[string]reported
		if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(pair.want) {
			t.Fatalf("%d metrics reported, contract has %d", len(metrics), len(pair.want))
		}
		for i, m := range pair.want {
			got, ok := metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value != float64(i)+1.000000123456789 {
				t.Errorf("%s: reported %+v (present %v)", m.Name, got, ok)
			}
		}
	}
}

func TestReportRejectsWhatTheContractCannotHold(t *testing.T) {
	res := result{metrics: map[string]float64{}, attempted: 1}
	for _, m := range endToEnd {
		res.metrics[m.name] = 1
	}
	delete(res.metrics, "setup_s")
	if _, err := report(io.Discard, "w", endToEnd, res, true); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	res.metrics["setup_s"], res.metrics["made_up"] = 1, 1
	if _, err := report(io.Discard, "w", endToEnd, res, true); err == nil {
		t.Error("a metric outside the tables was accepted")
	}
	delete(res.metrics, "made_up")
	res.failed = 1
	line, err := report(io.Discard, "w", endToEnd, res, true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Correct bool }
	if err := json.Unmarshal([]byte(line), &out); err != nil || out.Correct {
		t.Errorf("a failed request still reported correct: %s", line)
	}
}

func TestOracleTolerances(t *testing.T) {
	w := workloads()[0]
	pool := inputPool(w, 1)[:2]
	exact := oracle{pool: pool, want: pool}
	if !exact.ok(0, pool[0].Clone()) {
		t.Error("identical tensor rejected")
	}
	off := pool[0].Clone()
	off.Data[3] = math.Nextafter(off.Data[3], math.Inf(1))
	if exact.ok(0, off) {
		t.Error("one-ulp difference accepted bit-for-bit")
	}
	loose := oracle{pool: pool, want: pool, tol: f32Budget}
	if !loose.ok(0, off) {
		t.Error("one-ulp difference rejected at 1e-5")
	}
	off.Data[3] += 1e-3
	if loose.ok(0, off) || loose.ok(0, nil) || loose.ok(0, pool[0].Reshape(3, w.arch.H*w.arch.W)) {
		t.Error("a wrong response was accepted at 1e-5")
	}
	off.Data[3] = math.NaN()
	if loose.ok(0, off) {
		t.Error("NaN accepted")
	}
}
