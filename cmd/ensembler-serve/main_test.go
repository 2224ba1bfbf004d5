package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ensembler/internal/audit"
	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/tensor"
)

// runAsync starts run in a goroutine with a pipe-backed stdout and returns
// a line scanner plus the error channel.
func runAsync(ctx context.Context, t *testing.T, args []string) (*bufio.Scanner, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, args, pw, io.Discard)
		pw.Close()
		done <- err
	}()
	t.Cleanup(func() { pr.Close() })
	return bufio.NewScanner(pr), done
}

// scrapeAddr reads stdout lines until the bound-address banner appears.
func scrapeAddr(t *testing.T, sc *bufio.Scanner, done <-chan error) string {
	t.Helper()
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			return addr
		}
	}
	select {
	case err := <-done:
		t.Fatalf("server exited before announcing its address: %v", err)
	case <-time.After(time.Second):
		t.Fatal("no address banner")
	}
	return ""
}

// publishTiny publishes an untrained tiny pipeline into a fresh registry
// directory, with a K-shard layout when shards > 0, and returns the
// directory (the store half of the train→publish→serve→infer round trip;
// cmd/ensembler-train's tests cover real training into the same layout).
func publishTiny(t *testing.T, shards int) (dir string, reg *registry.Registry) {
	return publishTinyWith(t, registry.PublishOptions{Shards: shards})
}

// publishScored publishes the tiny pipeline with its leakage score
// recorded, as ensembler-train -model-dir does, and returns the score.
func publishScored(t *testing.T) (dir string, reg *registry.Registry, leak registry.Leakage) {
	t.Helper()
	leak, err := audit.Score(commtest.Pipeline(commtest.TinyArch(), 4, 2, 77))
	if err != nil {
		t.Fatal(err)
	}
	dir, reg = publishTinyWith(t, registry.PublishOptions{Leakage: &leak})
	return dir, reg, leak
}

func publishTinyWith(t *testing.T, opts registry.PublishOptions) (dir string, reg *registry.Registry) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "models")
	store, err := registry.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := commtest.Pipeline(commtest.TinyArch(), 4, 2, 77)
	if _, err := store.PublishWith("tiny", e, opts); err != nil {
		t.Fatal(err)
	}
	reg = registry.New(nil)
	if _, err := reg.Publish("tiny", e); err != nil {
		t.Fatal(err)
	}
	return dir, reg
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-model", "a.gob", "-model-dir", "d"}, "mutually exclusive"},
		{[]string{"stray"}, "unexpected arguments"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		// The server never rotates the selector itself, so it has no
		// rotation or breach-policy flags.
		{[]string{"-rotate-every", "1m"}, "flag provided but not defined: -rotate-every"},
		{[]string{"-audit-breaches", "1"}, "flag provided but not defined: -audit-breaches"},
		// Requests are not batched across connections, so there is no batch
		// window or intake queue to size.
		{[]string{"-batch-window", "1ms"}, "flag provided but not defined: -batch-window"},
		{[]string{"-max-queue", "8"}, "flag provided but not defined: -max-queue"},
		// A request is one feature tensor, so there is no list of inputs
		// to cap.
		{[]string{"-max-batch", "64"}, "flag provided but not defined: -max-batch"},
		// The server runs no leakage attack: the score is recorded at
		// publish time, so there is nothing to sample, cadence or calibrate.
		{[]string{"-audit-sample", "4"}, "flag provided but not defined: -audit-sample"},
		{[]string{"-audit-reservoir", "16"}, "flag provided but not defined: -audit-reservoir"},
		{[]string{"-audit-every", "1m"}, "flag provided but not defined: -audit-every"},
		{[]string{"-audit-min-samples", "2"}, "flag provided but not defined: -audit-min-samples"},
		{[]string{"-audit-calib", "16"}, "flag provided but not defined: -audit-calib"},
	}
	for _, c := range cases {
		err := run(ctx, c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRunMissingArtifacts(t *testing.T) {
	ctx := context.Background()
	missingFile := filepath.Join(t.TempDir(), "nope.gob")
	if err := run(ctx, []string{"-model", missingFile}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing model file: %v", err)
	}
	missingDir := filepath.Join(t.TempDir(), "nope")
	if err := run(ctx, []string{"-model-dir", missingDir}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing model dir: %v", err)
	}
}

func TestRunBadShardSpecs(t *testing.T) {
	ctx := context.Background()
	dir, _ := publishTiny(t, 0)
	for _, spec := range []string{"0/2", "3/2", "junk", "1/9"} {
		err := run(ctx, []string{"-model-dir", dir, "-shard", spec, "-addr", "127.0.0.1:0"}, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("-shard %s must be rejected for a 4-body model", spec)
		}
	}
	// A manifest that committed to a 2-shard fleet rejects a 4-shard member.
	dir2, _ := publishTiny(t, 2)
	err := run(ctx, []string{"-model-dir", dir2, "-shard", "1/4", "-addr", "127.0.0.1:0"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2-shard") {
		t.Errorf("shard-count mismatch with the manifest: %v", err)
	}
}

func TestServeInferRoundTrip(t *testing.T) {
	dir, reg := publishTiny(t, 0)
	e, err := reg.Current("tiny")
	if err != nil {
		t.Fatal(err)
	}
	pipeline := e.Pipeline()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{"-model-dir", dir, "-addr", "127.0.0.1:0", "-workers", "2"})
	addr := scrapeAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()

	client, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rt := pipeline.NewClientRuntime()
	client.ComputeFeatures = rt.Features
	client.Select = rt.Select
	client.Tail = rt.Tail

	arch := commtest.TinyArch()
	x := tensor.New(2, arch.InC, arch.H, arch.W)
	rng.New(5).FillNormal(x.Data, 0, 1)
	// The served pipeline was published from the same artifact bytes the
	// local copy holds, so remote logits must match local bit-for-bit.
	want := pipeline.Predict(x)
	logits, _, err := client.Infer(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !logits.AllClose(want, 1e-9) {
		t.Error("served inference does not match the published pipeline")
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

func TestServeShardHostsSubset(t *testing.T) {
	dir, _ := publishTiny(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{"-model-dir", dir, "-addr", "127.0.0.1:0", "-shard", "2/2"})
	addr := scrapeAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()

	client, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	plan, err := shard.Plan(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ex, _, err := client.Exchange(ctx, commtest.Input(commtest.TinyArch(), 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Features) != plan[1].Len() {
		t.Errorf("shard 2/2 returned %d feature vectors, hosts %d bodies", len(ex.Features), plan[1].Len())
	}
	if ex.Model != "tiny" || ex.Version != 1 {
		t.Errorf("shard response reports epoch %s v%d, want tiny v1", ex.Model, ex.Version)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

func TestRunRejectsCorruptModelFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gob")
	if err := os.WriteFile(path, []byte("not a pipeline"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-model", path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "loading model") {
		t.Errorf("corrupt model file: %v", err)
	}
}

// scrapeAdminAddr reads stdout lines until the admin banner appears.
func scrapeAdminAddr(t *testing.T, sc *bufio.Scanner, done <-chan error) string {
	t.Helper()
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "admin listening on "); ok {
			return addr
		}
	}
	select {
	case err := <-done:
		t.Fatalf("server exited before announcing its admin address: %v", err)
	case <-time.After(time.Second):
		t.Fatal("no admin banner")
	}
	return ""
}

// adminPost posts an empty body to an admin endpoint and returns the status.
func adminPost(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// adminGet fetches an admin endpoint body.
func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	dir, _ := publishTiny(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-workers", "2",
	})
	scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()

	if code, body := adminGet(t, admin+"/healthz"); code != 200 ||
		!strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, `"model": "tiny"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := adminGet(t, admin+"/metrics"); code != 200 ||
		!strings.Contains(body, "ensembler_server_requests_total") ||
		!strings.Contains(body, "ensembler_epoch_version 1") ||
		!strings.Contains(body, "ensembler_workers 2") ||
		strings.Contains(body, "ensembler_dispatch_") || strings.Contains(body, "ensembler_server_shed_total") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := adminGet(t, admin+"/leakage"); code != 200 ||
		!strings.Contains(body, `"status": "not recorded"`) || strings.Contains(body, `"leakage"`) {
		t.Errorf("/leakage of an unscored version = %d %q, want not recorded", code, body)
	}
	if _, body := adminGet(t, admin+"/metrics"); !strings.Contains(body, "ensembler_audit_leakage NaN\n") {
		t.Errorf("/metrics does not read ensembler_audit_leakage NaN for an unscored version:\n%s", body)
	}

	// The admin plane only reads: there is no rotation endpoint.
	if code := adminPost(t, admin+"/rotate"); code != http.StatusNotFound {
		t.Errorf("POST /rotate = %d, want 404", code)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

// TestAdminTracesEndpoints serves one traced request (sample rate 1 forces
// retention) and walks the trace surface: /traces must list it with stage
// attribution, /traces/{id} must serve Chrome trace-event JSON that actually
// parses as such, bad IDs must 400/404, and the profiler must exist exactly
// when -pprof asked for it.
func TestAdminTracesEndpoints(t *testing.T) {
	dir, reg := publishTiny(t, 0)
	e, err := reg.Current("tiny")
	if err != nil {
		t.Fatal(err)
	}
	pipeline := e.Pipeline()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-trace-sample", "1", "-pprof",
	})
	addr := scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()

	client, err := comm.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rt := pipeline.NewClientRuntime()
	client.ComputeFeatures = rt.Features
	client.Select = rt.Select
	client.Tail = rt.Tail
	arch := commtest.TinyArch()
	x := tensor.New(1, arch.InC, arch.H, arch.W)
	rng.New(9).FillNormal(x.Data, 0, 1)
	if _, _, err := client.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}

	// The server leg finishes on the connection writer after the response
	// flushed; poll until it lands in the ring.
	var listing struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			ID string `json:"id"`
		} `json:"traces"`
		Stages []struct {
			Stage string `json:"stage"`
		} `json:"stages"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, body := adminGet(t, admin+"/traces")
		if code != 200 {
			t.Fatalf("/traces = %d %q", code, body)
		}
		if err := json.Unmarshal([]byte(body), &listing); err != nil {
			t.Fatalf("/traces is not JSON: %v\n%s", err, body)
		}
		if listing.Enabled && len(listing.Traces) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !listing.Enabled || len(listing.Traces) == 0 {
		t.Fatal("/traces never listed the retained trace")
	}
	stages := map[string]bool{}
	for _, s := range listing.Stages {
		stages[s.Stage] = true
	}
	for _, want := range []string{"decode", "forward", "encode"} {
		if !stages[want] {
			t.Errorf("/traces stage attribution is missing %q (have %v)", want, listing.Stages)
		}
	}

	// The full timeline must be valid Chrome trace-event JSON: a
	// traceEvents array of "X" complete events with µs timestamps.
	code, body := adminGet(t, admin+"/traces/"+listing.Traces[0].ID)
	if code != 200 {
		t.Fatalf("/traces/{id} = %d %q", code, body)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("/traces/{id} is not Chrome trace-event JSON: %v\n%s", err, body)
	}
	var complete int
	for _, ev := range chrome.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Name == "" || ev.Ts <= 0 || ev.Pid != 1 || ev.Tid < 1 {
				t.Errorf("malformed complete event: %+v", ev)
			}
		case "M":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete == 0 {
		t.Fatal("trace timeline has no complete events")
	}

	if code, _ := adminGet(t, admin+"/traces/nothex"); code != 400 {
		t.Errorf("/traces/nothex = %d, want 400", code)
	}
	if code, _ := adminGet(t, admin+"/traces/ffffffffffffffff"); code != 404 {
		t.Errorf("/traces/<unknown id> = %d, want 404", code)
	}
	if code, _ := adminGet(t, admin+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline with -pprof = %d, want 200", code)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

// Without -pprof the profiler must not exist on the admin plane.
func TestAdminPprofAbsentByDefault(t *testing.T) {
	dir, _ := publishTiny(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
	})
	scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()
	if code, _ := adminGet(t, admin+"/debug/pprof/cmdline"); code != 404 {
		t.Errorf("/debug/pprof/cmdline without -pprof = %d, want 404", code)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

func TestAuditFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-audit-threshold", "0"}, "-audit-threshold must be positive"},
		{[]string{"-audit-threshold", "-0.5"}, "-audit-threshold must be positive"},
		{[]string{"-audit-threshold", "NaN"}, "-audit-threshold must be positive"},
	}
	for _, c := range cases {
		err := run(ctx, c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// storeDigests maps every file under dir to its SHA-256.
func storeDigests(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	sums := map[string][sha256.Size]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sums[path] = sha256.Sum256(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestServerNeverWritesStore pins that the serving process only reads its
// model store: with the version's recorded leakage score above a
// deliberately low threshold and one client drained through every rung of
// the privacy ladder to refusal — the evidence a rotation policy would act
// on — no file under -model-dir changes, the live epoch stays v1, fresh
// clients are still served bit-exact, and there is no rotation endpoint. A
// new selection is the secret holder's move.
func TestServerNeverWritesStore(t *testing.T) {
	dir, reg, recorded := publishScored(t)
	e, err := reg.Current("tiny")
	if err != nil {
		t.Fatal(err)
	}
	pipeline := e.Pipeline()
	before := storeDigests(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-workers", "2",
		"-audit-threshold", "0.05", // below the tiny pipeline's recorded SSIM
		"-privacy-budget-rows", "8",
	})
	addr := scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()

	arch := commtest.TinyArch()
	x := tensor.New(1, arch.InC, arch.H, arch.W)
	rng.New(17).FillNormal(x.Data, 0, 1)
	want := pipeline.Predict(x)
	dial := func(id string) *comm.Client {
		t.Helper()
		c, err := comm.Dial(addr, comm.WithClientID(id))
		if err != nil {
			t.Fatal(err)
		}
		rt := pipeline.NewClientRuntime()
		c.ComputeFeatures = rt.Features
		c.Select = rt.Select
		c.Tail = rt.Tail
		return c
	}

	// Drain one identity through the whole 8-row ladder: clean while more
	// than 4 rows are left, noised (doubled from 1 left) down to 0, then
	// refused at no cost.
	drained := dial("drained")
	defer drained.Close()
	var ladder []string
	for r := 0; r < 10; r++ {
		got, _, err := drained.Infer(ctx, x)
		switch {
		case errors.Is(err, comm.ErrBudgetExhausted):
			ladder = append(ladder, "refused")
		case err != nil:
			t.Fatalf("drained request %d: %v", r+1, err)
		case got.AllClose(want, 1e-9):
			ladder = append(ladder, "clean")
		default:
			ladder = append(ladder, "noised")
		}
	}
	wantLadder := "clean clean clean noised noised noised noised noised refused refused"
	if got := strings.Join(ladder, " "); got != wantLadder {
		t.Errorf("drained ladder = %s, want %s", got, wantLadder)
	}

	// Fresh identities are served bit-exact alongside the drained one.
	for i := 0; i < 3; i++ {
		fresh := dial(fmt.Sprintf("fresh-%d", i))
		got, _, err := fresh.Infer(ctx, x)
		fresh.Close()
		if err != nil || !got.AllClose(want, 1e-9) {
			t.Fatalf("fresh client %d: err %v, bit-exact %v", i, err, err == nil && got.AllClose(want, 1e-9))
		}
	}

	// /leakage reports the score the version was published with, above the
	// threshold, and nothing acts on it.
	var leak struct {
		Version   int               `json:"version"`
		Threshold float64           `json:"threshold"`
		Status    string            `json:"status"`
		Leakage   *registry.Leakage `json:"leakage"`
	}
	_, body := adminGet(t, admin+"/leakage")
	if err := json.Unmarshal([]byte(body), &leak); err != nil {
		t.Fatalf("/leakage is not JSON: %v\n%s", err, body)
	}
	if leak.Version != 1 || leak.Threshold != 0.05 || leak.Status != "above threshold" ||
		leak.Leakage == nil || *leak.Leakage != recorded {
		t.Errorf("/leakage = %s, want v1's recorded score %+v above threshold 0.05", body, recorded)
	}

	if _, body := adminGet(t, admin+"/metrics"); !strings.Contains(body, "ensembler_epoch_version 1\n") {
		t.Errorf("/metrics does not read ensembler_epoch_version 1:\n%s", body)
	}
	if code := adminPost(t, admin+"/rotate"); code != http.StatusNotFound {
		t.Errorf("POST /rotate = %d, want 404", code)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
	after := storeDigests(t, dir)
	if len(after) != len(before) {
		t.Errorf("store holds %d files after serving, %d before", len(after), len(before))
	}
	for path, sum := range before {
		if after[path] != sum {
			t.Errorf("%s changed while serving", path)
		}
	}
}
