package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge"}, "unknown scale"},
		{[]string{"-table", "9"}, "unknown table"},
		{[]string{"stray"}, "unexpected arguments"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRunTableIII(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "3", "-n", "10"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Standard CI", "Ensembler", "STAMP", "overhead vs Standard CI"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("Table III output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunServingBench(t *testing.T) {
	if testing.Short() {
		t.Skip("serving bench smoke test")
	}
	var out bytes.Buffer
	err := run([]string{"-serving", "-n", "2", "-clients", "2", "-workers", "2", "-duration", "150ms"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serving bench", "1 connection", "analytic model"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("serving bench output missing %q:\n%s", want, out.String())
		}
	}
}

func TestJSONRequiresServing(t *testing.T) {
	err := run([]string{"-json", "out.json", "-table", "3"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-serving") {
		t.Errorf("-json without -serving = %v, want an error naming -serving", err)
	}
}

// TestServingBenchWritesJSONReport runs a minimal serving bench with -json
// and validates the machine-readable report — the smoke CI runs on every
// push to start the BENCH_*.json perf trajectory.
func TestServingBenchWritesJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	err := run([]string{
		"-serving", "-n", "2", "-clients", "2", "-workers", "2",
		"-duration", "100ms", "-json", path,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if report.GoVersion == "" || report.Timestamp == "" || report.GOMAXPROCS <= 0 {
		t.Errorf("report missing environment fields: %+v", report)
	}
	if report.Config.Bodies != 2 || report.Config.Clients != 2 || report.Config.WindowSeconds != 0.1 {
		t.Errorf("report config = %+v", report.Config)
	}
	byName := map[string]BenchResult{}
	for _, r := range report.Results {
		byName[r.Name] = r
	}
	single, ok := byName["serve_single_connection"]
	if !ok || single.ReqPerSec <= 0 || single.NsPerOp <= 0 {
		t.Errorf("missing or empty single-connection result: %+v", report.Results)
	}
	if _, ok := byName["serve_concurrent_2"]; !ok {
		t.Errorf("missing concurrent result: %+v", report.Results)
	}
	if pred, ok := byName["predicted_speedup"]; !ok || pred.Value <= 0 {
		t.Errorf("missing predicted speedup: %+v", report.Results)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("stdout does not announce the report: %s", out.String())
	}
}

func TestWireAndCompareFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-serving", "-wire", "carrier-pigeon"}, "unknown -wire"},
		{[]string{"-compare", "base.json", "-table", "3"}, "-compare gates serving"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestServingBenchF32Wire drives the serving bench over the non-default
// wire end to end.
func TestServingBenchF32Wire(t *testing.T) {
	if testing.Short() {
		t.Skip("serving bench smoke test")
	}
	var out bytes.Buffer
	err := run([]string{"-serving", "-n", "2", "-clients", "2", "-workers", "2",
		"-duration", "100ms", "-wire", "f32"}, &out, io.Discard)
	if err != nil {
		t.Fatalf("-wire f32: %v", err)
	}
	if !strings.Contains(out.String(), "allocs/req") {
		t.Errorf("-wire f32 output missing allocation accounting:\n%s", out.String())
	}
}

// TestCompareReports covers the perf gate: pass within the band, fail on
// an alloc regression, skip raw req/s across host shapes.
func TestCompareReports(t *testing.T) {
	mk := func(effective int, rps, speedup, allocs float64) *BenchReport {
		return &BenchReport{
			Config: BenchConfig{Clients: 8, EffectiveParallelism: effective},
			Results: []BenchResult{
				{Name: "serve_single_connection", ReqPerSec: rps},
				{Name: "serve_concurrent_8", ReqPerSec: rps},
				{Name: "speedup", Value: speedup},
				{Name: "allocs_per_req", Value: allocs},
			},
		}
	}
	write := func(r *BenchReport) string {
		path := filepath.Join(t.TempDir(), "base.json")
		if err := writeBenchReport(path, *r); err != nil {
			t.Fatal(err)
		}
		return path
	}

	base := write(mk(1, 1000, 1.0, 40))
	var out bytes.Buffer
	if err := compareReports(&out, base, mk(1, 950, 0.98, 42), 0.2); err != nil {
		t.Errorf("within-band run failed the gate: %v\n%s", err, out.String())
	}
	if err := compareReports(io.Discard, base, mk(1, 1000, 1.0, 500), 0.2); err == nil {
		t.Error("10x alloc regression passed the gate")
	}
	if err := compareReports(io.Discard, base, mk(1, 1000, 0.5, 40), 0.2); err == nil {
		t.Error("halved speedup passed the gate")
	}
	if err := compareReports(io.Discard, base, mk(1, 100, 1.0, 40), 0.2); err == nil {
		t.Error("5x single-connection slowdown on the same host shape passed the gate")
	}
	// Different effective parallelism: raw req/s must be skipped, not failed.
	out.Reset()
	if err := compareReports(&out, base, mk(8, 100, 1.0, 40), 0.2); err != nil {
		t.Errorf("cross-host-shape req/s comparison failed instead of skipping: %v", err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("gate output does not announce the skip:\n%s", out.String())
	}
	if err := compareReports(io.Discard, filepath.Join(t.TempDir(), "missing.json"), mk(1, 1, 1, 1), 0.2); err == nil {
		t.Error("missing baseline accepted")
	}
}

// TestServingBenchBatchedRegime smokes the continuous-batching regime: the
// dispatcher measurement, the queueing-model gate, the planning sweep, and
// the new JSON series the perf trajectory records.
func TestServingBenchBatchedRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("serving bench smoke test")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	err := run([]string{
		"-serving", "-n", "2", "-clients", "4", "-workers", "1",
		"-duration", "400ms", "-batch-window", "20ms", "-max-queue", "32",
		"-tolerance", "0.5", "-json", path,
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"continuous batching", "queueing model", "queueing sweep"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("batched bench output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if report.Config.BatchWindowSeconds != 0.02 || report.Config.MaxQueue != 32 {
		t.Errorf("report config missing batching fields: %+v", report.Config)
	}
	byName := map[string]BenchResult{}
	for _, r := range report.Results {
		byName[r.Name] = r
	}
	if b, ok := byName["serve_batched"]; !ok || b.ReqPerSec <= 0 {
		t.Errorf("missing or empty serve_batched series: %+v", report.Results)
	}
	for _, name := range []string{"serve_batched_p50_ms", "serve_batched_p99_ms", "queueing_predicted_p99_ms", "batch_occupancy_max"} {
		if r, ok := byName[name]; !ok || r.Value <= 0 {
			t.Errorf("missing or empty %s series: %+v", name, byName[name])
		}
	}
	if _, ok := byName["shed_total"]; !ok {
		t.Errorf("missing shed_total series: %+v", report.Results)
	}
}

// TestCompareReportsBatchedSeries pins the gate's treatment of the batched
// throughput series: gated when both reports carry it, skipped (not failed)
// against a baseline predating the dispatcher.
func TestCompareReportsBatchedSeries(t *testing.T) {
	mk := func(batchedRPS float64) *BenchReport {
		r := &BenchReport{
			Config: BenchConfig{Clients: 8, EffectiveParallelism: 1},
			Results: []BenchResult{
				{Name: "serve_single_connection", ReqPerSec: 1000},
				{Name: "serve_concurrent_8", ReqPerSec: 1000},
				{Name: "allocs_per_req", Value: 40},
			},
		}
		if batchedRPS > 0 {
			r.Results = append(r.Results, BenchResult{Name: "serve_batched", ReqPerSec: batchedRPS})
		}
		return r
	}
	write := func(r *BenchReport) string {
		path := filepath.Join(t.TempDir(), "base.json")
		if err := writeBenchReport(path, *r); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Pre-dispatcher baseline: the new series must be skipped silently.
	if err := compareReports(io.Discard, write(mk(0)), mk(900), 0.2); err != nil {
		t.Errorf("baseline without serve_batched failed the gate: %v", err)
	}
	// Both sides carry it: a collapse must fail.
	if err := compareReports(io.Discard, write(mk(1000)), mk(100), 0.2); err == nil {
		t.Error("10x batched-throughput regression passed the gate")
	}
	if err := compareReports(io.Discard, write(mk(1000)), mk(950), 0.2); err != nil {
		t.Errorf("within-band batched run failed the gate: %v", err)
	}
}
